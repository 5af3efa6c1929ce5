package workload

import (
	"context"
	"testing"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/corpus"
	"repro/internal/stats"
	"repro/internal/textproc"
)

// goodInstance acquires a qualified instance for deterministic cost tests.
func goodInstance(t *testing.T, seed int64) (*cloudsim.Cloud, *cloudsim.Instance) {
	t.Helper()
	c := cloudsim.New(seed)
	in, _, err := c.AcquireQualifiedCtx(context.Background(), cloudsim.Small, "us-east-1a", 50)
	if err != nil {
		t.Fatal(err)
	}
	return c, in
}

func TestItemsHelpers(t *testing.T) {
	items := Items([]int64{10, 20})
	if len(items) != 2 || items[0].Complexity != 1 {
		t.Errorf("items = %+v", items)
	}
	if NewItem(5).Size != 5 {
		t.Error("NewItem wrong")
	}
}

func TestGrepSmallFilesOverheadDominates(t *testing.T) {
	_, in := goodInstance(t, 1)
	g := NewGrep()
	const volume = 100 * 1000 * 1000 // 100 MB
	timeFor := func(unit int64) time.Duration {
		n := volume / unit
		var total time.Duration
		for i := int64(0); i < n; i++ {
			total += g.PerFile(in) + g.Process(NewItem(unit), 80, in)
		}
		return total
	}
	orig := timeFor(50 * 1000)        // ~50 kB: the HTML set's original files
	merged := timeFor(10 * 1000000)   // 10 MB units (plateau)
	hundred := timeFor(100 * 1000000) // 100 MB unit
	ratio := float64(orig) / float64(hundred)
	// The paper's Fig. 6 reports 5.6x for original files vs 100 MB units.
	if ratio < 3.5 || ratio > 9 {
		t.Errorf("small-file slowdown = %.1fx, want ≈5.6x (within [3.5, 9])", ratio)
	}
	// Plateau: 10 MB and 100 MB should be nearly identical.
	platRatio := float64(merged) / float64(hundred)
	if platRatio < 0.95 || platRatio > 1.25 {
		t.Errorf("plateau ratio 10MB/100MB = %v, want ≈1", platRatio)
	}
}

func TestGrepLargeUnitPenalty(t *testing.T) {
	_, in := goodInstance(t, 1)
	g := NewGrep()
	perByte := func(unit int64) float64 {
		d := g.Process(NewItem(unit), 80, in)
		return d.Seconds() / float64(unit)
	}
	if perByte(5_000_000_000) <= perByte(1_000_000_000)*1.02 {
		t.Error("no degradation past the 2 GB plateau edge")
	}
}

func TestGrepZeroAndEdgeCases(t *testing.T) {
	g := NewGrep()
	if g.Process(NewItem(0), 80, nil) != 0 {
		t.Error("zero size has nonzero cost")
	}
	if g.Process(NewItem(100), 0, nil) <= 0 {
		t.Error("zero bandwidth should fall back, not divide by zero")
	}
	if g.Name() != "grep" {
		t.Error("name wrong")
	}
}

func TestGrepSlopeMatchesEquation1Shape(t *testing.T) {
	// On a good instance with EBS-like 80 MB/s, the per-byte slope should
	// be in the vicinity of Eq. (1)'s 1.324e-8 s/byte (we accept 2x).
	_, in := goodInstance(t, 2)
	g := NewGrep()
	d := g.Process(NewItem(1_000_000_000), 80, in)
	slope := d.Seconds() / 1e9
	if slope < 1.324e-8/2 || slope > 1.324e-8*2 {
		t.Errorf("grep slope = %.3g s/byte, want ≈1.3e-8", slope)
	}
}

func TestPOSSlopeMatchesEquation3Shape(t *testing.T) {
	_, in := goodInstance(t, 3)
	p := NewPOS()
	// At the 1 kB unit size (no memory penalty region boundary), cost per
	// byte should be near Eq. (3)'s 86.5 µs/byte within 2x.
	d := p.Process(Item{Size: 1000, Complexity: 1}, 80, in)
	perByte := d.Seconds() / 1000
	if perByte < 86.5e-6/2 || perByte > 86.5e-6*2 {
		t.Errorf("POS per-byte = %.3g s, want ≈8.65e-5", perByte)
	}
}

func TestPOSMemoryDegradationPronounced(t *testing.T) {
	_, in := goodInstance(t, 3)
	p := NewPOS()
	perByte := func(unit int64) float64 {
		return p.Process(NewItem(unit), 80, in).Seconds() / float64(unit)
	}
	small := perByte(1000)      // 1 kB (original segmentation)
	large := perByte(1_000_000) // 1 MB unit
	if large < 1.5*small {
		t.Errorf("large-unit degradation %.2fx, want pronounced (≥1.5x)", large/small)
	}
}

func TestPOSWrapperAblation(t *testing.T) {
	_, in := goodInstance(t, 4)
	wrapped := NewPOS()
	unwrapped := NewPOS()
	unwrapped.Wrapper = false
	items := Items(make([]int64, 100))
	for i := range items {
		items[i] = NewItem(2000)
	}
	cost := func(p *POS) time.Duration {
		total := p.Startup(in)
		for _, it := range items {
			total += p.PerFile(in) + p.Process(it, 80, in)
		}
		return total
	}
	w, u := cost(wrapped), cost(unwrapped)
	// 100 JVM starts vs 1: the wrapper must win by a wide margin.
	if float64(u) < 5*float64(w) {
		t.Errorf("wrapper saves too little: wrapped %v vs unwrapped %v", w, u)
	}
}

func TestPOSIgnoresStorageBandwidth(t *testing.T) {
	_, in := goodInstance(t, 4)
	p := NewPOS()
	a := p.Process(NewItem(10000), 5, in)
	b := p.Process(NewItem(10000), 500, in)
	if a != b {
		t.Error("POS cost depends on storage bandwidth; it is CPU-bound")
	}
}

func TestComplexityFromStats(t *testing.T) {
	nominal := ComplexityFromStats(textproc.TextStats{MeanSentence: 12}, 0.03)
	if nominal < 0.9 || nominal > 1.25 {
		t.Errorf("nominal complexity = %v, want ≈1", nominal)
	}
	zero := ComplexityFromStats(textproc.TextStats{}, -1)
	if zero <= 0 {
		t.Error("degenerate stats must yield positive complexity")
	}
	long := ComplexityFromStats(textproc.TextStats{MeanSentence: 30}, 0.08)
	short := ComplexityFromStats(textproc.TextStats{MeanSentence: 8}, 0.01)
	if long <= short {
		t.Error("longer+rarer text not more complex")
	}
}

func TestComplexityDublinersVsAgnesGrey(t *testing.T) {
	// Scaled-down books: same styles, smaller word budgets for test speed.
	tg := textproc.NewTagger()
	dub := corpus.BookSpec{Title: "Dubliners", Words: 6000, Style: corpus.ComplexStyle()}
	agn := corpus.BookSpec{Title: "Agnes Grey", Words: 6000, Style: corpus.PlainStyle()}
	cDub := ComplexityOf(corpus.GenerateBook(dub, 21), tg)
	cAgn := ComplexityOf(corpus.GenerateBook(agn, 21), tg)
	ratio := cDub / cAgn
	// Paper: 6m32s vs 3m48s ≈ 1.72x. Accept a generous band around it.
	if ratio < 1.3 || ratio > 3.0 {
		t.Errorf("complexity ratio = %.2f, want ≈1.7 (within [1.3, 3.0])", ratio)
	}
}

func TestRunAdvancesClockAndReturnsElapsed(t *testing.T) {
	c, in := goodInstance(t, 5)
	before := c.Clock().Now()
	elapsed, err := RunCtx(context.Background(), c, in, NewGrep(), Items([]int64{1000000, 2000000}), Local{}, "d")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Error("elapsed not positive")
	}
	if c.Clock().Now()-before != elapsed {
		t.Error("clock advance != elapsed")
	}
}

func TestRunOnEBSUsesPlacement(t *testing.T) {
	c, in := goodInstance(t, 6)
	vol, err := c.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(vol, in); err != nil {
		t.Fatal(err)
	}
	// Find a slow placement key and a fast one.
	var fastKey, slowKey string
	for i := 0; i < 1000 && (fastKey == "" || slowKey == ""); i++ {
		key := string(rune('a'+i%26)) + string(rune('0'+i/26))
		if vol.PlacementFactor(key) == 1 {
			fastKey = key
		} else if vol.PlacementFactor(key) > 2 {
			slowKey = key
		}
	}
	if fastKey == "" || slowKey == "" {
		t.Skip("no contrasting placements in key sample")
	}
	items := Items([]int64{500_000_000})
	fast, err := RunCtx(context.Background(), c, in, NewGrep(), items, vol, fastKey)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := RunCtx(context.Background(), c, in, NewGrep(), items, vol, slowKey)
	if err != nil {
		t.Fatal(err)
	}
	if float64(slow) < 1.3*float64(fast) {
		t.Errorf("slow placement %v not markedly slower than fast %v", slow, fast)
	}
}

func TestRunErrors(t *testing.T) {
	c := cloudsim.New(7)
	in, _ := c.Launch(cloudsim.Small, "us-east-1a")
	if _, err := RunCtx(context.Background(), c, in, NewGrep(), nil, nil, "d"); err == nil {
		t.Error("expected error on pending instance")
	}
	c.WaitUntilRunning(in)
	if _, err := RunCtx(context.Background(), c, in, NewGrep(), []Item{{Size: -1}}, nil, "d"); err == nil {
		t.Error("expected error for negative size")
	}
}

// Fig. 3's phenomenon: tiny probes have large relative stddev; larger
// probes stabilise. Five repeats, as in the paper's protocol.
func TestMeasurementInstabilityShrinksWithVolume(t *testing.T) {
	c, in := goodInstance(t, 8)
	cv := func(unit int64, n int) float64 {
		var xs []float64
		for rep := 0; rep < 5; rep++ {
			items := make([]Item, n)
			for i := range items {
				items[i] = NewItem(unit)
			}
			d, err := RunCtx(context.Background(), c, in, NewGrep(), items, Local{}, "d")
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, d.Seconds())
		}
		return stats.Summarize(xs).CV()
	}
	small := cv(10_000, 10)      // 100 kB total: startup noise dominates
	large := cv(10_000_000, 100) // 1 GB total: processing dominates
	if small < 2*large {
		t.Errorf("small-probe CV %.3f not much larger than large-probe CV %.3f", small, large)
	}
	if large > 0.15 {
		t.Errorf("large-probe CV %.3f, want stable (< 0.15)", large)
	}
}

func TestLocalStorageNilInstance(t *testing.T) {
	if (Local{}).ReadMBps(nil, "x") != 0 {
		t.Error("nil instance should read at 0")
	}
}

func TestSlowInstanceCostsMore(t *testing.T) {
	// A slow instance (low CPU factor) must take longer for POS work.
	c := cloudsim.New(11)
	var slow, good *cloudsim.Instance
	for i := 0; i < 200 && (slow == nil || good == nil); i++ {
		in, err := c.Launch(cloudsim.Small, "us-east-1a")
		if err != nil {
			t.Fatal(err)
		}
		c.WaitUntilRunning(in)
		switch {
		case in.Quality.CPUFactor < 0.6 && slow == nil:
			slow = in
		case in.Quality.CPUFactor > 0.95 && good == nil:
			good = in
		}
	}
	if slow == nil || good == nil {
		t.Skip("quality lottery did not produce both grades")
	}
	p := NewPOS()
	it := NewItem(100000)
	if p.Process(it, 80, slow) <= p.Process(it, 80, good) {
		t.Error("slow instance not slower for CPU-bound work")
	}
}

// Items converts a size list to nominal-complexity items.
func Items(sizes []int64) []Item {
	out := make([]Item, len(sizes))
	for i, s := range sizes {
		out[i] = NewItem(s)
	}
	return out
}
