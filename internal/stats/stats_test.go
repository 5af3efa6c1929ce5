package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrInsufficientData
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile p=%v out of [0,1]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// median returns the 0.5-quantile of xs.
func median(xs []float64) (float64, error) { return quantile(xs, 0.5) }

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.StdDev != 0 || s.Min != 42 || s.Max != 42 {
		t.Fatalf("single summary wrong: %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	// Sample stddev with n-1 denominator: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if !almostEqual(s.StdDev, want, 1e-12) {
		t.Errorf("stddev = %v, want %v", s.StdDev, want)
	}
	if s.Min != 2 || s.Max != 9 || s.Sum != 40 {
		t.Errorf("min/max/sum wrong: %+v", s)
	}
}

func TestSummarizeNegativeValues(t *testing.T) {
	s := Summarize([]float64{-3, -1, -2})
	if s.Mean != -2 || s.Min != -3 || s.Max != -1 {
		t.Fatalf("negative summary wrong: %+v", s)
	}
}

func TestCV(t *testing.T) {
	if cv := (Summary{Mean: 10, StdDev: 2}).CV(); !almostEqual(cv, 0.2, 1e-12) {
		t.Errorf("CV = %v, want 0.2", cv)
	}
	if cv := (Summary{Mean: -10, StdDev: 2}).CV(); !almostEqual(cv, 0.2, 1e-12) {
		t.Errorf("CV with negative mean = %v, want 0.2", cv)
	}
	if cv := (Summary{Mean: 0, StdDev: 1}).CV(); !math.IsInf(cv, 1) {
		t.Errorf("CV with zero mean = %v, want +Inf", cv)
	}
	if cv := (Summary{}).CV(); cv != 0 {
		t.Errorf("CV of zero summary = %v, want 0", cv)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	med, err := median(xs)
	if err != nil {
		t.Fatal(err)
	}
	if med != 2.5 {
		t.Errorf("median = %v, want 2.5", med)
	}
	q0, _ := quantile(xs, 0)
	q1, _ := quantile(xs, 1)
	if q0 != 1 || q1 != 4 {
		t.Errorf("q0=%v q1=%v, want 1 and 4", q0, q1)
	}
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty quantile")
	}
	if _, err := quantile(xs, 1.5); err == nil {
		t.Error("expected error for out-of-range p")
	}
}

func TestQuantileSingle(t *testing.T) {
	q, err := quantile([]float64{7}, 0.9)
	if err != nil || q != 7 {
		t.Fatalf("quantile of singleton = %v, %v", q, err)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMeanQuantileProperty(t *testing.T) {
	// Property: min ≤ every quantile ≤ max, and quantiles are monotone in p.
	f := func(raw []int16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		pa := float64(p1%101) / 100
		pb := float64(p2%101) / 100
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, err1 := quantile(xs, pa)
		qb, err2 := quantile(xs, pb)
		if err1 != nil || err2 != nil {
			return false
		}
		s := Summarize(xs)
		return qa >= s.Min && qb <= s.Max && qa <= qb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitLinearExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 1 + 2x
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-12) || !almostEqual(fit.Intercept, 1, 1e-12) {
		t.Errorf("fit = %+v, want slope 2, intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Errorf("R² = %v, want 1", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := FitLinear([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for mismatched lengths")
	}
	if _, err := FitLinear([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("expected error for constant x")
	}
}

func TestFitQuadraticOriginExact(t *testing.T) {
	// y = 3x² - 2x
	xs := []float64{1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x*x - 2*x
	}
	fit, err := FitQuadraticOrigin(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.A, 3, 1e-9) || !almostEqual(fit.B, -2, 1e-9) {
		t.Errorf("fit = %+v, want A=3 B=-2", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Errorf("R² = %v, want 1", fit.R2)
	}
}

func TestFitQuadraticOriginErrors(t *testing.T) {
	if _, err := FitQuadraticOrigin([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, err := FitQuadraticOrigin([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
}

func TestFitLinearRecoversNoisyLine(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var xs, ys []float64
	for i := 0; i < 500; i++ {
		x := r.Float64() * 100
		xs = append(xs, x)
		ys = append(ys, 5+0.3*x+r.NormFloat64()*0.5)
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 0.3, 0.02) || !almostEqual(fit.Intercept, 5, 0.5) {
		t.Errorf("noisy fit off: %+v", fit)
	}
	if fit.R2 < 0.97 {
		t.Errorf("R² = %v, want > 0.97", fit.R2)
	}
}

func TestResiduals(t *testing.T) {
	xs := []float64{1, 2}
	ys := []float64{3, 7}
	pred := func(x float64) float64 { return 2 * x }
	rel := RelativeResiduals(xs, ys, pred)
	if !almostEqual(rel[0], 0.5, 1e-12) || !almostEqual(rel[1], 0.75, 1e-12) {
		t.Errorf("relative residuals = %v", rel)
	}
}

func TestRelativeResidualsSkipsZeroPrediction(t *testing.T) {
	rel := RelativeResiduals([]float64{0, 1}, []float64{5, 4}, func(x float64) float64 { return x })
	if len(rel) != 1 || rel[0] != 3 {
		t.Errorf("rel = %v, want [3]", rel)
	}
}

func TestLogSpace(t *testing.T) {
	out, err := LogSpace([]float64{1, math.E})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], 0, 1e-12) || !almostEqual(out[1], 1, 1e-12) {
		t.Errorf("log space = %v", out)
	}
	if _, err := LogSpace([]float64{1, 0}); err == nil {
		t.Error("expected error for zero value")
	}
	if _, err := LogSpace([]float64{-1}); err == nil {
		t.Error("expected error for negative value")
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.9, 1.2815515655446004},
		{0.95, 1.6448536269514722},
		{0.975, 1.959963984540054},
		{0.1, -1.2815515655446004},
		{0.001, -3.090232306167813},
	}
	for _, c := range cases {
		z, err := NormalQuantile(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(z, c.z, 1e-8) {
			t.Errorf("quantile(%v) = %v, want %v", c.p, z, c.z)
		}
	}
	if _, err := NormalQuantile(0); err == nil {
		t.Error("expected error for p=0")
	}
	if _, err := NormalQuantile(1); err == nil {
		t.Error("expected error for p=1")
	}
}

func TestNormalQuantileCDFRoundTrip(t *testing.T) {
	for p := 0.01; p < 1; p += 0.01 {
		z, err := NormalQuantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := NormalCDF(z); !almostEqual(got, p, 1e-9) {
			t.Errorf("CDF(quantile(%v)) = %v", p, got)
		}
	}
}

func TestDeadlineInflationMatchesPaper(t *testing.T) {
	// The paper reports z = 1.29 for a 10% miss probability; our quantile is
	// the exact 1.2816. With μ=0, σ=1 the inflation must be ≈ z.
	rel := []float64{-1, 1} // mean 0, sample stddev sqrt(2)
	a, err := DeadlineInflation(rel, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.2815515655446004 * math.Sqrt2
	if !almostEqual(a, want, 1e-9) {
		t.Errorf("inflation = %v, want %v", a, want)
	}
}

func TestDeadlineInflationErrors(t *testing.T) {
	if _, err := DeadlineInflation([]float64{1}, 0.1); err == nil {
		t.Error("expected error for single residual")
	}
	if _, err := DeadlineInflation([]float64{1, 2}, 0); err == nil {
		t.Error("expected error for missProb=0")
	}
	if _, err := DeadlineInflation([]float64{1, 2}, 1); err == nil {
		t.Error("expected error for missProb=1")
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 5, 9, 10, 95, 99, 100, 250} {
		if err := h.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if h.total != 8 {
		t.Errorf("total = %d, want 8", h.total)
	}
	bins := h.Bins()
	if bins[0] != 3 {
		t.Errorf("bin 0 = %d, want 3", bins[0])
	}
	if bins[1] != 1 {
		t.Errorf("bin 1 = %d, want 1", bins[1])
	}
	if bins[9] != 2 {
		t.Errorf("bin 9 = %d, want 2", bins[9])
	}
	if h.Overflow() != 2 {
		t.Errorf("overflow = %d, want 2", h.Overflow())
	}
	if err := h.Add(-1); err == nil {
		t.Error("expected error for negative value")
	}
}

func TestHistogramConstructionErrors(t *testing.T) {
	if _, err := NewHistogram(0, 100); err == nil {
		t.Error("expected error for zero bin width")
	}
	if _, err := NewHistogram(10, 105); err == nil {
		t.Error("expected error for non-multiple cap")
	}
	if _, err := NewHistogram(10, 0); err == nil {
		t.Error("expected error for zero cap")
	}
}

func TestHistogramFractionBelow(t *testing.T) {
	h, _ := NewHistogram(10, 100)
	for i := int64(0); i < 100; i += 10 {
		_ = h.Add(i)
	}
	if f := h.FractionBelow(50); !almostEqual(f, 0.5, 1e-12) {
		t.Errorf("fraction below 50 = %v, want 0.5", f)
	}
	if f := h.FractionBelow(100); !almostEqual(f, 1, 1e-12) {
		t.Errorf("fraction below 100 = %v, want 1", f)
	}
	empty, _ := NewHistogram(10, 100)
	if f := empty.FractionBelow(50); f != 0 {
		t.Errorf("empty fraction = %v, want 0", f)
	}
}

func TestHistogramRender(t *testing.T) {
	h, _ := NewHistogram(10, 30)
	_ = h.Add(5)
	_ = h.Add(5)
	_ = h.Add(15)
	_ = h.Add(99)
	out := h.Render(0, 20)
	if out == "" {
		t.Fatal("empty render")
	}
	if got := h.Render(2, 20); len(got) >= len(out) {
		t.Error("maxBins did not truncate output")
	}
}

func TestSeedForDeterministicAndDistinct(t *testing.T) {
	a := SeedFor(1, "corpus")
	b := SeedFor(1, "corpus")
	c := SeedFor(1, "instances")
	d := SeedFor(2, "corpus")
	if a != b {
		t.Error("SeedFor not deterministic")
	}
	if a == c || a == d {
		t.Error("SeedFor collisions across names/roots")
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(42, "lognormal-test")
	var xs []float64
	for i := 0; i < 20000; i++ {
		xs = append(xs, LogNormal(r, math.Log(100), 0.5))
	}
	med, err := median(xs)
	if err != nil {
		t.Fatal(err)
	}
	if med < 90 || med > 110 {
		t.Errorf("lognormal median = %v, want ≈100", med)
	}
}

func TestBounded(t *testing.T) {
	r := NewRand(42, "bounded-test")
	for i := 0; i < 1000; i++ {
		v := Bounded(func() float64 { return LogNormal(r, 5, 2) }, 10, 1000, 50)
		if v < 10 || v > 1000 {
			t.Fatalf("bounded sample %v out of range", v)
		}
	}
	// A sampler that never lands in range must clamp.
	v := Bounded(func() float64 { return 5000 }, 10, 1000, 3)
	if v != 1000 {
		t.Errorf("clamp high = %v, want 1000", v)
	}
	v = Bounded(func() float64 { return -5 }, 10, 1000, 3)
	if v != 10 {
		t.Errorf("clamp low = %v, want 10", v)
	}
}

func TestMeanAndStdDevHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Summarize([]float64{5}).StdDev != 0 {
		t.Error("StdDev of singleton != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
}
