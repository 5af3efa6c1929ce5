package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/perfmodel"
	"repro/internal/provision"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationPacking compares the paper's probe-set packer, subset-sum
// first-fit (§4), with first-fit and FFD on 20,000 items (at base scale) of
// 10-100 kB in 100 kB bins, where the heuristics differ.
func AblationPacking(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("ablation-packing", "bins used by first-fit, FFD and subset-sum first-fit (100 kB bins)")
	items := drawItems(int(20_000*cfg.Scale), cfg.Seed, "ablation-packing", func(r *rand.Rand) int64 { return r.Int63n(90_000) + 10_000 })
	rep.note("%d items of 10-100 kB; the paper packs probe sets with subset-sum first-fit", len(items))
	rep.Header = []string{"packer", "bins", "mean fill"}
	for _, p := range []struct {
		name string
		pack func([]binpack.Item, int64) ([]*binpack.Bin, error)
	}{{"firstfit", binpack.FirstFit}, {"ffd", binpack.FirstFitDecreasing}, {"subsetsum", binpack.SubsetSumFirstFit}} {
		bins, err := p.pack(items, 100_000)
		if err != nil {
			return nil, err
		}
		s := binpack.Summarize(bins)
		rep.addRow(p.name, fmt.Sprintf("%d", s.Bins), fmt.Sprintf("%.4f", s.MeanFill))
		rep.Values["bins_"+p.name] = float64(s.Bins)
	}
	return rep, nil
}

// AblationMerge checks the §4 construction trick, one subset-sum pass at s₀
// merged k bins at a time for each k·s₀, against a fresh pass at every
// k·s₀, over 20,000 Text_400K-sized files (at base scale).
func AblationMerge(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("ablation-merge", "probe family by merging one s0 packing vs re-packing per unit size")
	items := drawItems(int(20_000*cfg.Scale), cfg.Seed, "ablation-merge", textDist().Sample)
	const s0 = 100_000
	base, err := binpack.SubsetSumFirstFit(items, s0)
	if err != nil {
		return nil, err
	}
	multiples := []int{2, 5, 10, 50, 100}
	rep.note("%d items, s0 = %s; merging is 1 packing pass, re-packing %d", len(items), fmtBytes(s0), len(multiples)+1)
	rep.Header = []string{"k", "unit", "merged bins", "fill", "over unit", "repacked bins", "fill", "over unit"}
	for _, k := range multiples {
		merged, err := binpack.MergeGroups(base, k)
		if err != nil {
			return nil, err
		}
		repacked, err := binpack.SubsetSumFirstFit(items, int64(k)*s0)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%d", k), fmtBytes(int64(k) * s0)}
		for i, bins := range [][]*binpack.Bin{merged, repacked} {
			s := binpack.Summarize(bins)
			row = append(row, fmt.Sprintf("%d", s.Bins), fmt.Sprintf("%.4f", s.MeanFill), fmt.Sprintf("%d", s.Oversized))
			rep.Values[fmt.Sprintf("bins_%s_k%d", []string{"merged", "repacked"}[i], k)] = float64(s.Bins)
		}
		rep.addRow(row...)
	}
	return rep, nil
}

// AblationQualification runs one uniform plan of 20,000 Text_400K-sized
// files (at base scale), its bins near full at the deadline, on clouds seeded
// cfg.Seed … cfg.Seed+99: on the lottery's instances and on qualified ones (§4).
func AblationQualification(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("ablation-qualification", "deadline misses with and without bonnie++ qualification")
	items := drawItems(int(20_000*cfg.Scale), cfg.Seed, "ablation-qualification", textDist().Sample)
	m := &perfmodel.Affine{A: 0.865e-4, B: 0.327}
	deadline := m.Predict(float64(binpack.TotalSize(items)) / 2 * 1.18)
	plan, err := (&provision.Planner{Model: m, Rate: 0.085}).PlanDeadline(items, deadline, provision.UniformBins)
	if err != nil {
		return nil, err
	}
	const seeds = 100
	rep.note("%d files, %d instances, deadline %s, %d clouds (seeds %d-%d)", len(items), plan.Instances, fmtSecs(deadline), seeds, cfg.Seed, cfg.Seed+seeds-1)
	rep.Header = []string{"acquisition", "mean misses", "max misses", "runs with a miss"}
	for _, arm := range []string{"lottery", "qualified"} {
		misses, hit := make([]float64, seeds), 0
		for i := range misses {
			opts := provision.ExecuteOptions{App: workload.NewPOS(), Qualify: arm == "qualified"}
			out, err := provision.ExecuteCtx(ctx, cloudsim.New(cfg.Seed+int64(i)), plan, opts)
			if err != nil {
				return nil, err
			}
			misses[i] = float64(out.Missed)
			hit += min(out.Missed, 1)
		}
		sm := stats.Summarize(misses)
		rep.addRow(arm, fmt.Sprintf("%.2f", sm.Mean), fmt.Sprintf("%.0f", sm.Max), fmt.Sprintf("%d", hit))
		rep.Values["mean_missed_"+arm] = sm.Mean
	}
	return rep, nil
}

// AblationPOSWrapper prices the POS batch wrapper, one JVM start per run
// against one per file, over 1,000 files (at base scale) of 2 kB.
func AblationPOSWrapper(_ context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := newReport("ablation-poswrapper", "POS cost with and without the batch wrapper")
	files := int(1000 * cfg.Scale)
	cost := func(wrapper bool) float64 {
		p := workload.NewPOS()
		p.Wrapper = wrapper
		perFile := p.PerFile(nil) + p.Process(workload.NewItem(2000), 80, nil)
		return (p.Startup(nil) + time.Duration(files)*perFile).Seconds()
	}
	wrapped, unwrapped := cost(true), cost(false)
	rep.note("%d files of 2 kB on a nominal instance", files)
	rep.Header = []string{"JVM starts", "cost"}
	rep.addRow("once per run (wrapper)", fmtSecs(wrapped))
	rep.addRow("once per file", fmtSecs(unwrapped))
	rep.Values["no_wrapper_slowdown_x"] = unwrapped / wrapped
	return rep, nil
}

// drawItems draws n item sizes from the seeded stream (seed, salt).
func drawItems(n int, seed int64, salt string, size func(*rand.Rand) int64) []binpack.Item {
	r := stats.NewRand(seed, salt)
	items := make([]binpack.Item, n)
	for i := range items {
		items[i] = binpack.Item{Size: size(r)}
	}
	return items
}
