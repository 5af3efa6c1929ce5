package probe

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/binpack"
	"repro/internal/corpus"
	"repro/internal/corpus/corpustest"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func TestItemsWithComplexity(t *testing.T) {
	files := []binpack.Item{{Size: 10}, {Size: 20}, {Size: 30}}
	cx := []float64{2.0, 0} // no factor for the second, none at all for the third → 1
	items := ItemsWithComplexity(files, cx)
	if items[0].Complexity != 2.0 || items[1].Complexity != 1.0 || items[2].Complexity != 1.0 {
		t.Errorf("complexities = %v, %v, %v", items[0].Complexity, items[1].Complexity, items[2].Complexity)
	}
}

func TestBinsToItemsWithComplexityWeightedMean(t *testing.T) {
	files := []binpack.Item{{Size: 10}, {Size: 30}}
	bins, err := binpack.FirstFitDecreasing(files, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The decreasing packer holds the 30-byte file first; its factor is
	// still read at its input position.
	cx := []float64{3.0, 1.0}
	items := BinsToItemsWithComplexity(bins, cx)
	if len(items) != 1 {
		t.Fatalf("items = %d", len(items))
	}
	// (1.0·30 + 3.0·10) / 40 = 1.5
	if items[0].Complexity != 1.5 {
		t.Errorf("merged complexity = %v, want 1.5", items[0].Complexity)
	}
	if items[0].Size != 40 {
		t.Errorf("merged size = %d", items[0].Size)
	}
}

// meanComplexity is the size-weighted mean complexity of a profile, the
// effective corpus-wide factor.
func meanComplexity(p *corpus.Profile) float64 {
	var weighted, total float64
	for i, f := range p.FS.List() {
		weighted += p.Complexity[i] * float64(f.Size)
		total += float64(f.Size)
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

func TestGenerateProfileGradient(t *testing.T) {
	spec := corpus.Text400K(0.002)
	p, err := corpustest.Ramp(spec, 5, 0.8, 1.6, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, last := p.Complexity[0], p.Complexity[len(p.Complexity)-1]
	if first != 0.8 || last != 1.6 {
		t.Errorf("gradient endpoints = %v, %v", first, last)
	}
	mean := meanComplexity(p)
	if mean < 1.0 || mean > 1.4 {
		t.Errorf("mean complexity = %v, want ≈1.2", mean)
	}
	// Flat gradient, with jitter: complexity varies around the level.
	pj, err := corpustest.Ramp(spec, 5, 1, 1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, c := range pj.Complexity {
		if c != 1 {
			varied = true
		}
		if c < 0.05 {
			t.Fatalf("complexity %v below floor", c)
		}
	}
	if !varied {
		t.Error("jitter produced no variation")
	}
}

// The §5.2 mechanism, reproduced honestly: on a corpus whose complexity
// ramps upward, a prefix-based calibration (the escalation protocol reads
// files in order) under-prices the corpus, while random samples capture
// the true mean — the reason the paper's random-sample refits moved the
// slope, and why "random sampling can be vital".
func TestRandomSamplingCapturesComplexityVariation(t *testing.T) {
	profile, err := corpustest.Ramp(corpus.Text400K(0.05), 9, 0.7, 1.7, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	files := profileItems(profile)
	c, in := qualified(t, 9)
	h := NewHarness(c, in, workload.NewPOS(), workload.Local{})

	// A random sample reorders the files, so its complexities are looked
	// up by name rather than read at the corpus positions.
	byName := make(map[string]float64, len(files))
	for i, f := range files {
		byName[f.ID] = profile.Complexity[i]
	}
	measure := func(sel []binpack.Item, volume int64) (float64, float64) {
		cx := make([]float64, len(sel))
		for i, f := range sel {
			cx[i] = byName[f.ID]
		}
		items := ItemsWithComplexity(sel, cx)
		m, err := h.MeasureProbeCtx(context.Background(), volume, 0, items)
		if err != nil {
			t.Fatal(err)
		}
		return float64(totalBytes(items)), m.Mean
	}

	// Prefix calibration at two volumes (the escalation protocol's shape).
	var pxs, pys []float64
	for _, volume := range []int64{2_000_000, 8_000_000} {
		sel, err := SelectPrefix(files, volume)
		if err != nil {
			t.Fatal(err)
		}
		x, y := measure(sel, volume)
		pxs = append(pxs, x)
		pys = append(pys, y)
	}
	prefixFit, err := perfmodel.FitAffine(pxs, pys)
	if err != nil {
		t.Fatal(err)
	}

	// Random-sample calibration at the same volumes.
	r := rand.New(rand.NewSource(10))
	var rxs, rys []float64
	for _, volume := range []int64{2_000_000, 8_000_000} {
		for s := 0; s < 3; s++ {
			sel, err := SampleWithoutReplacement(files, volume, r)
			if err != nil {
				t.Fatal(err)
			}
			x, y := measure(sel, volume)
			rxs = append(rxs, x)
			rys = append(rys, y)
		}
	}
	randomFit, err := perfmodel.FitAffine(rxs, rys)
	if err != nil {
		t.Fatal(err)
	}

	// The prefix sees complexity ≈0.7-0.8; random samples see ≈1.2. The
	// random-sample slope must be markedly higher, like the paper's
	// Eq. (2) vs Eq. (1) direction.
	ratio := randomFit.A / prefixFit.A
	if ratio < 1.2 {
		t.Errorf("random-sample slope only %vx the prefix slope; the complexity ramp should show", ratio)
	}
	// And the random model predicts the full corpus far better.
	allItems := ItemsWithComplexity(files, profile.Complexity)
	var trueSeconds float64
	for _, it := range allItems {
		trueSeconds += workload.NewPOS().Process(it, 80, in).Seconds()
	}
	total := float64(totalBytes(allItems))
	prefErr := relErr(prefixFit.Predict(total), trueSeconds)
	randErr := relErr(randomFit.Predict(total), trueSeconds)
	if randErr >= prefErr {
		t.Errorf("random-sample model no better: err %v vs prefix %v", randErr, prefErr)
	}
}

func relErr(pred, truth float64) float64 {
	d := pred - truth
	if d < 0 {
		d = -d
	}
	return d / truth
}

func profileItems(p *corpus.Profile) []binpack.Item {
	files := p.FS.List()
	items := make([]binpack.Item, len(files))
	for i, f := range files {
		items[i] = binpack.Item{ID: f.Name, Size: f.Size}
	}
	return items
}
