package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, relTol float64) bool {
	if b == 0 {
		return math.Abs(a) < relTol
	}
	return math.Abs(a/b-1) < relTol
}

func genNoisy(f func(x float64) float64, n int, noiseSD float64, seed int64) (xs, ys []float64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		// Log-spaced volumes, like the paper's escalating probes.
		x := math.Pow(10, 3+r.Float64()*6)
		y := f(x) * (1 + r.NormFloat64()*noiseSD)
		if y <= 0 {
			continue
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

func TestFitAffineRecoversEquation1(t *testing.T) {
	// Eq. (1): f(x) = -0.974 + 1.324e-8 x.
	f := func(x float64) float64 { return -0.974 + 1.324e-8*x }
	var xs, ys []float64
	for _, v := range []float64{1e8, 5e8, 1e9, 5e9, 1e10, 1e11} {
		xs = append(xs, v)
		ys = append(ys, f(v))
	}
	m, err := FitAffine(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.A, 1.324e-8, 1e-6) || math.Abs(m.B-(-0.974)) > 1e-6 {
		t.Errorf("fit = %v", m)
	}
	if m.R2() < 0.9999 {
		t.Errorf("R² = %v", m.R2())
	}
	x, err := m.Invert(3600)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.Predict(x), 3600, 1e-9) {
		t.Error("invert not a right inverse")
	}
	if m.Shape() != ShapeLinear {
		t.Error("affine shape not linear")
	}
}

func TestFitProportionalLogSpace(t *testing.T) {
	xs, ys := genNoisy(func(x float64) float64 { return 2e-8 * x }, 200, 0.05, 1)
	m, err := FitProportional(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.A, 2e-8, 0.05) {
		t.Errorf("A = %v, want 2e-8", m.A)
	}
	if m.R2() < 0.99 {
		t.Errorf("R² = %v", m.R2())
	}
	x, err := m.Invert(100)
	if err != nil || !close(x, 100/m.A, 1e-9) {
		t.Errorf("invert = %v, %v", x, err)
	}
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	for _, b := range []float64{0.7, 1.0, 1.4} {
		b := b
		xs, ys := genNoisy(func(x float64) float64 { return 3e-6 * math.Pow(x, b) }, 300, 0.05, 2)
		m, err := FitPowerLaw(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m.B-b) > 0.03 {
			t.Errorf("B = %v, want %v", m.B, b)
		}
		x, err := m.Invert(50)
		if err != nil {
			t.Fatal(err)
		}
		if !close(m.Predict(x), 50, 1e-6) {
			t.Error("power-law invert broken")
		}
	}
}

func TestPowerLawShapeClassification(t *testing.T) {
	if (&PowerLaw{A: 1, B: 1.2}).Shape() != ShapeConvex {
		t.Error("b>1 should be convex")
	}
	if (&PowerLaw{A: 1, B: 0.8}).Shape() != ShapeConcave {
		t.Error("b<1 should be concave")
	}
	if (&PowerLaw{A: 1, B: 1}).Shape() != ShapeLinear {
		t.Error("b=1 should be linear")
	}
}

func TestFitLogQuad(t *testing.T) {
	// y = x^(0.02 ln x + 0.6)
	truth := func(x float64) float64 {
		lx := math.Log(x)
		return math.Exp(0.02*lx*lx + 0.6*lx)
	}
	xs, ys := genNoisy(truth, 300, 0.02, 3)
	m, err := FitLogQuad(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A-0.02) > 0.005 || math.Abs(m.B-0.6) > 0.1 {
		t.Errorf("fit = %v", m)
	}
	if m.Shape() != ShapeConvex {
		t.Error("A>0 should be convex")
	}
	x, err := m.Invert(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.Predict(x), 1000, 1e-6) {
		t.Error("log-quad invert broken")
	}
}

func TestLogQuadInvertDegenerate(t *testing.T) {
	if _, err := (&LogQuad{}).Invert(10); err == nil {
		t.Error("expected error for degenerate model")
	}
	m := &LogQuad{A: 0, B: 2}
	x, err := m.Invert(100)
	if err != nil || !close(m.Predict(x), 100, 1e-9) {
		t.Errorf("linear-branch invert: %v, %v", x, err)
	}
	if _, err := (&LogQuad{A: -1, B: 0}).Invert(math.Exp(10)); err == nil {
		t.Error("expected no-real-root error")
	}
}

func TestFitExponential(t *testing.T) {
	truth := func(x float64) float64 { return 2 * math.Exp(3e-10*x) }
	var xs, ys []float64
	for x := 1e8; x <= 1e10; x *= 1.5 {
		xs = append(xs, x)
		ys = append(ys, truth(x))
	}
	m, err := FitExponential(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !close(m.A, 2, 0.01) || !close(m.B, 3e-10, 0.01) {
		t.Errorf("fit = %v", m)
	}
	if m.Shape() != ShapeConvex {
		t.Error("B>0 should be convex")
	}
	x, err := m.Invert(10)
	if err != nil || !close(m.Predict(x), 10, 1e-9) {
		t.Errorf("invert = %v, %v", x, err)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitAffine([]float64{1}, []float64{1}); err == nil {
		t.Error("expected insufficient-data error")
	}
	if _, err := FitProportional([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected length error")
	}
	if _, err := FitPowerLaw([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Error("expected log-domain error")
	}
	if _, err := FitExponential([]float64{1, 2}, []float64{1, -2}); err == nil {
		t.Error("expected log-domain error for y")
	}
	if _, err := (&Affine{A: 0}).Invert(1); err == nil {
		t.Error("expected zero-slope invert error")
	}
	if _, err := (&Proportional{A: 0}).Invert(1); err == nil {
		t.Error("expected zero-slope invert error")
	}
	if _, err := (&PowerLaw{A: 1, B: 1}).Invert(-1); err == nil {
		t.Error("expected domain error")
	}
	if _, err := (&Exponential{A: 1, B: 1}).Invert(0); err == nil {
		t.Error("expected domain error")
	}
}

func TestFitAllAndBest(t *testing.T) {
	xs, ys := genNoisy(func(x float64) float64 { return 1e-8 * x }, 100, 0.03, 5)
	models := FitAll(xs, ys)
	if len(models) < 4 {
		t.Fatalf("only %d families fitted", len(models))
	}
	best, err := Best(models)
	if err != nil {
		t.Fatal(err)
	}
	if best.R2() < 0.98 {
		t.Errorf("best R² = %v", best.R2())
	}
	if _, err := Best(nil); err == nil {
		t.Error("expected error for empty model list")
	}
}

func TestAdjustmentMatchesPaperCalculation(t *testing.T) {
	// Build residuals with known moments: the paper derives a = 1.525 from
	// its POS model (4) residuals; we verify the formula a = z·σ + μ.
	m := &Affine{A: 1, B: 0}
	xs := []float64{1, 1, 1, 1}
	ys := []float64{1.2, 0.8, 1.3, 0.7} // rel residuals: .2 -.2 .3 -.3
	adj, err := NewAdjustment(m, xs, ys, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(adj.ResidualMean) > 1e-12 {
		t.Errorf("residual mean = %v", adj.ResidualMean)
	}
	wantSD := math.Sqrt((0.04 + 0.04 + 0.09 + 0.09) / 3)
	if !close(adj.ResidualStdDev, wantSD, 1e-9) {
		t.Errorf("residual sd = %v, want %v", adj.ResidualStdDev, wantSD)
	}
	wantA := 1.2815515655446004 * wantSD
	if !close(adj.A, wantA, 1e-9) {
		t.Errorf("a = %v, want %v", adj.A, wantA)
	}
	// D = 3600 derates to D/(1+a), like the paper's 3600 → 3124.
	d1 := adj.AdjustDeadline(3600)
	if !close(d1, 3600/(1+wantA), 1e-9) {
		t.Errorf("adjusted deadline = %v", d1)
	}
}

func TestAdjustmentPaperNumbers(t *testing.T) {
	// With the paper's a = 1.525: D=3600 → 1425.7? No - the paper says
	// 3124. Its D/(1+a) uses a = 0.1525? Re-read: the paper's published
	// adjusted deadlines are 3600→3124 and 7200→6247, i.e. 1+a ≈ 1.1524.
	// We therefore interpret the printed "a = 1.525" as 10x-scaled
	// (a = 0.1525) and verify the ratio our formula needs to reproduce the
	// published deadlines.
	const impliedA = 0.15245
	if d := (Adjustment{A: impliedA}).AdjustDeadline(3600); math.Abs(d-3124) > 1 {
		t.Errorf("3600 derates to %v, want ≈3124", d)
	}
	if d := (Adjustment{A: impliedA}).AdjustDeadline(7200); math.Abs(d-6247.9) > 1 {
		t.Errorf("7200 derates to %v, want ≈6247", d)
	}
}

func TestAdjustDeadlinePathological(t *testing.T) {
	if d := (Adjustment{A: -1.5}).AdjustDeadline(100); d != 100 {
		t.Errorf("pathological adjustment changed deadline: %v", d)
	}
}

func TestNewAdjustmentErrors(t *testing.T) {
	m := &Affine{A: 1}
	if _, err := NewAdjustment(m, []float64{1}, []float64{1, 2}, 0.1); err == nil {
		t.Error("expected length error")
	}
	if _, err := NewAdjustment(m, []float64{1}, []float64{1}, 0.1); err == nil {
		t.Error("expected insufficient-residual error")
	}
}

// Property: for every family, Invert is a right inverse of Predict on the
// fitted curve wherever both are defined.
func TestInvertRoundTripProperty(t *testing.T) {
	xs, ys := genNoisy(func(x float64) float64 { return 1e-7 * math.Pow(x, 1.1) }, 200, 0.02, 9)
	models := FitAll(xs, ys)
	f := func(raw uint32) bool {
		x := 1e3 + float64(raw%1_000_000)*1e3
		for _, m := range models {
			y := m.Predict(x)
			if y <= 0 {
				continue
			}
			xi, err := m.Invert(y)
			if err != nil {
				continue
			}
			if !close(m.Predict(xi), y, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestModelStrings(t *testing.T) {
	models := []Model{
		&Affine{A: 1, B: 2},
		&Proportional{A: 1},
		&PowerLaw{A: 1, B: 2},
		&LogQuad{A: 1, B: 2},
		&Exponential{A: 1, B: 2},
	}
	for _, m := range models {
		if m.String() == "" || m.Name() == "" {
			t.Errorf("%T has empty identity", m)
		}
	}
}

func BenchmarkModelFitAll(b *testing.B) {
	var xs, ys []float64
	for v := 1e6; v <= 1e10; v *= 2 {
		xs = append(xs, v)
		ys = append(ys, 0.3+8.65e-5*v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FitAll(xs, ys)
	}
}
