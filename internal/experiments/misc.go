package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/corpus"
	"repro/internal/provision"
	"repro/internal/textproc"
	"repro/internal/workload"
)

// Complexity reproduces the §5.2 text-complexity experiment: two books of
// nearly equal word count (Dubliners 67,496 words vs Agnes Grey 67,755 —
// within 300) whose POS analysis differs by almost 2x (6m32s vs 3m48s)
// because of sentence complexity. The books are generated synthetically in
// matching styles, analysed by the real tagger, and priced by the POS cost
// model.
func Complexity(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("complexity", "Dubliners vs Agnes Grey: POS cost of text complexity")
	tagger := textproc.NewTagger()
	pos := workload.NewPOS()
	_, in, err := qualifiedSetup(ctx, cfg.Seed, "complexity")
	if err != nil {
		return nil, err
	}
	type book struct {
		spec corpus.BookSpec
		text []byte
	}
	books := []book{
		{spec: corpus.Dubliners()},
		{spec: corpus.AgnesGrey()},
	}
	rep.Header = []string{"book", "words", "bytes", "mean sentence", "OOV rate", "complexity", "sim time"}
	simMinutes := map[string]float64{}
	for i := range books {
		b := &books[i]
		b.text = corpus.GenerateBook(b.spec, cfg.Seed)
		st := textproc.Analyze(b.text)
		_, res := tagger.TagText(b.text)
		oov := float64(res.Unknown) / float64(res.Words)
		complexity := workload.ComplexityFromStats(st, oov)
		item := workload.Item{Size: int64(len(b.text)), Complexity: complexity}
		simT := pos.Process(item, 80, in) + pos.PerFile(in) + pos.Startup(in)
		simMinutes[b.spec.Title] = simT.Minutes()
		rep.addRow(b.spec.Title,
			fmt.Sprintf("%d", corpus.CountWords(b.text)),
			fmtBytes(int64(len(b.text))),
			fmt.Sprintf("%.1f", st.MeanSentence),
			fmt.Sprintf("%.3f", oov),
			fmt.Sprintf("%.2f", complexity),
			fmt.Sprintf("%.1f min", simT.Minutes()))
	}
	rep.note("paper: Dubliners 6m32s vs Agnes Grey 3m48s (1.72x) on ~67.5k words each")
	rep.Values["dubliners_min"] = simMinutes["Dubliners"]
	rep.Values["agnesgrey_min"] = simMinutes["Agnes Grey"]
	rep.Values["ratio"] = simMinutes["Dubliners"] / simMinutes["Agnes Grey"]
	rep.Values["word_diff"] = float64(corpus.AgnesGrey().Words - corpus.Dubliners().Words)
	return rep, nil
}

// SwitchCalc reproduces the §3.1 switch-or-stay calculation for a slow
// instance: staying processes ~210 GB in the next hour; switching to a
// fast instance (3-minute startup + attach penalty) gains ~57 GB; a slow
// replacement loses ~10 GB.
func SwitchCalc(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("switchcalc", "switch-or-stay for a slow instance (§3.1)")
	d, err := analyzeSwitch(60, 78, 3*time.Minute, time.Hour, 0.85)
	if err != nil {
		return nil, err
	}
	rep.Header = []string{"option", "GB processed next hour", "delta vs stay"}
	rep.addRow("stay on slow (60 MB/s)", fmt.Sprintf("%.0f", d.StayGB), "-")
	rep.addRow("switch, fast replacement", fmt.Sprintf("%.0f", d.SwitchGB), fmt.Sprintf("%+.0f", d.SwitchGB-d.StayGB))
	rep.addRow("switch, slow replacement", fmt.Sprintf("%.0f", d.SwitchSlowGB), fmt.Sprintf("%+.0f", d.SwitchSlowGB-d.StayGB))
	rep.note("paper: stay ≈210 GB; switching gains ≈57 GB if fast, loses ≈10 GB if slow")
	rep.Values["stay_gb"] = d.StayGB
	rep.Values["switch_gain_gb"] = d.SwitchGB - d.StayGB
	rep.Values["switch_loss_gb"] = d.StayGB - d.SwitchSlowGB
	rep.Values["recommend_switch"] = boolToFloat(d.Recommend)
	rep.Values["expected_gain_gb"] = d.ExpectedGainGB
	return rep, nil
}

// switchDecision is the §3.1 back-of-envelope: an I/O-bound application on
// a slow instance can either let it run another hour or switch to a fresh
// (likely fast) instance, paying a startup + EBS-attach penalty.
type switchDecision struct {
	// StayGB is the data processed in the horizon if we stay.
	StayGB float64
	// SwitchGB is the data processed if the replacement is fast.
	SwitchGB float64
	// SwitchSlowGB is the downside if the replacement is slow too.
	SwitchSlowGB float64
	// Recommend is true when switching wins in expectation.
	Recommend bool
	// ExpectedGainGB is the probability-weighted gain from switching.
	ExpectedGainGB float64
}

// analyzeSwitch reproduces the paper's example: at 60 MB/s a slow instance
// processes ≈210 GB in the next hour; a fast replacement (even after a
// 3-minute penalty) processes ≈57 GB more; a slow replacement loses
// ≈10 GB. pFast is the probability the replacement is fast.
func analyzeSwitch(slowMBps, fastMBps float64, penalty, horizon time.Duration, pFast float64) (switchDecision, error) {
	if slowMBps <= 0 || fastMBps <= 0 {
		return switchDecision{}, fmt.Errorf("experiments: speeds must be positive (%v, %v)", slowMBps, fastMBps)
	}
	if penalty < 0 || horizon <= 0 {
		return switchDecision{}, fmt.Errorf("experiments: invalid penalty %v or horizon %v", penalty, horizon)
	}
	if pFast < 0 || pFast > 1 {
		return switchDecision{}, fmt.Errorf("experiments: pFast %v out of [0,1]", pFast)
	}
	gb := func(mbps float64, d time.Duration) float64 {
		return mbps * d.Seconds() / 1000
	}
	work := horizon - penalty
	if work < 0 {
		work = 0
	}
	d := switchDecision{
		StayGB:       gb(slowMBps, horizon),
		SwitchGB:     gb(fastMBps, work),
		SwitchSlowGB: gb(slowMBps, work),
	}
	d.ExpectedGainGB = pFast*(d.SwitchGB-d.StayGB) + (1-pFast)*(d.SwitchSlowGB-d.StayGB)
	d.Recommend = d.ExpectedGainGB > 0
	return d, nil
}

// Retrieval quantifies the paper's §1 claim that reshaping "also speeds up
// the task of retrieving the results of our application, by having the
// output be less segmented", which "in turn, results in a shorter makespan"
// — and that the per-byte transfer cost is constant, so only request
// charges vary with segmentation.
func Retrieval(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("retrieval", "output retrieval time and cost vs segmentation")
	m := cloudsim.DefaultRetrievalModel
	p := cloudsim.DefaultTransferPricing
	const outputBytes = 10_000_000_000 // 10 GB of application output
	rep.Header = []string{"output files", "retrieval time", "transfer cost", "request share"}
	segmentations := []int{2_000_000, 200_000, 20_000, 1000, 100}
	var times []float64
	for _, objects := range segmentations {
		d, err := m.RetrievalTime(outputBytes, objects)
		if err != nil {
			return nil, err
		}
		cost, err := p.TransferCost(outputBytes, objects, "out")
		if err != nil {
			return nil, err
		}
		byteCost, err := p.TransferCost(outputBytes, 0, "out")
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
		rep.addRow(fmt.Sprintf("%d", objects), fmtSecs(d.Seconds()),
			fmt.Sprintf("$%.3f", cost), fmt.Sprintf("%.1f%%", 100*(cost-byteCost)/cost))
	}
	speedup, err := m.RetrievalSpeedup(outputBytes, segmentations[0], segmentations[len(segmentations)-1])
	if err != nil {
		return nil, err
	}
	rep.note("the per-byte cost is constant; only request charges and wall-clock vary")
	rep.Values["speedup_2M_to_100_files"] = speedup
	rep.Values["segmented_s"] = times[0]
	rep.Values["merged_s"] = times[len(times)-1]
	return rep, nil
}

// CostFn tabulates the paper's §5 pricing function f(d) for a fixed
// predicted workload across deadlines on both sides of the one-hour
// boundary.
func CostFn(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("costfn", "pricing function f(d) for P = 5.3 predicted hours")
	const predicted = 5.3
	const rate = 0.085
	rep.Header = []string{"deadline (h)", "cost ($)", "instances implied"}
	for _, d := range []float64{0.25, 0.5, 0.75, 1, 2, 6} {
		c, err := provision.Cost(predicted, d, rate)
		if err != nil {
			return nil, err
		}
		instances := c / rate
		rep.addRow(fmt.Sprintf("%.2f", d), fmt.Sprintf("%.3f", c), fmt.Sprintf("%.0f", instances))
		rep.Values[fmt.Sprintf("cost_d%.2f", d)] = c
	}
	rep.note("d ≥ 1h: r·⌈P⌉ = %.3f; d < 1h: r·⌈P/d⌉ grows as the deadline shrinks", rate*6)
	// The headline shape: sub-hour deadlines cost strictly more.
	cHalf, _ := provision.Cost(predicted, 0.5, rate)
	cOne, _ := provision.Cost(predicted, 1, rate)
	rep.Values["subhour_premium"] = cHalf / cOne
	return rep, nil
}
