package stats

import (
	"fmt"
	"math"
)

// LinearFit is the result of an ordinary least-squares straight-line fit
// y ≈ Intercept + Slope·x.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.6g + %.6g*x (R²=%.4f, n=%d)", f.Intercept, f.Slope, f.R2, f.N)
}

// FitLinear computes the ordinary least-squares line through (xs, ys).
// It requires at least two points with distinct x values.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	det := n*sxx - sx*sx
	// Guard against exactly and *nearly* singular designs: with all x
	// equal, floating-point residue can leave det tiny but nonzero, and
	// the resulting slope is garbage.
	if det == 0 || math.Abs(det) < 1e-12*math.Abs(n*sxx) {
		return LinearFit{}, fmt.Errorf("stats: degenerate design (all x identical)")
	}
	slope := (n*sxy - sx*sy) / det
	intercept := (sy - slope*sx) / n
	fit := LinearFit{Slope: slope, Intercept: intercept, N: len(xs)}
	fit.R2 = rSquared(ys, func(i int) float64 { return fit.Predict(xs[i]) })
	return fit, nil
}

// QuadraticOriginFit is the result of fitting y ≈ A·x² + B·x (no constant
// term), the log-space form the paper uses for y = x^(a·ln x + b).
type QuadraticOriginFit struct {
	A, B float64
	R2   float64
	N    int
}

// Predict evaluates the fitted quadratic at x.
func (f QuadraticOriginFit) Predict(x float64) float64 { return f.A*x*x + f.B*x }

// FitQuadraticOrigin solves the 2×2 normal equations for y ≈ A·x² + B·x.
func FitQuadraticOrigin(xs, ys []float64) (QuadraticOriginFit, error) {
	if len(xs) != len(ys) {
		return QuadraticOriginFit{}, fmt.Errorf("stats: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return QuadraticOriginFit{}, ErrInsufficientData
	}
	// Normal equations for basis {x², x}:
	//   [Σx⁴ Σx³] [A]   [Σx²y]
	//   [Σx³ Σx²] [B] = [Σxy ]
	var s4, s3, s2, s2y, s1y float64
	for i := range xs {
		x := xs[i]
		x2 := x * x
		s4 += x2 * x2
		s3 += x2 * x
		s2 += x2
		s2y += x2 * ys[i]
		s1y += x * ys[i]
	}
	det := s4*s2 - s3*s3
	if det == 0 || math.Abs(det) < 1e-12*math.Abs(s4*s2) {
		return QuadraticOriginFit{}, fmt.Errorf("stats: degenerate design for quadratic fit")
	}
	fit := QuadraticOriginFit{
		A: (s2y*s2 - s3*s1y) / det,
		B: (s4*s1y - s3*s2y) / det,
		N: len(xs),
	}
	fit.R2 = rSquared(ys, func(i int) float64 { return fit.Predict(xs[i]) })
	return fit, nil
}

// rSquared computes the coefficient of determination of predictions pred(i)
// against observations ys. A constant-y sample yields 1 when predictions are
// exact and 0 otherwise.
func rSquared(ys []float64, pred func(i int) float64) float64 {
	mean := Mean(ys)
	var ssRes, ssTot float64
	for i, y := range ys {
		r := y - pred(i)
		ssRes += r * r
		d := y - mean
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return 0
	}
	return 1 - ssRes/ssTot
}

// RelativeResiduals returns (y - f(x)) / f(x) for each point, the quantity
// the paper assumes normally distributed when adjusting deadlines (§5.2).
// Points where the prediction is zero are skipped.
func RelativeResiduals(xs, ys []float64, predict func(x float64) float64) []float64 {
	res := make([]float64, 0, len(ys))
	for i := range ys {
		p := predict(xs[i])
		if p == 0 {
			continue
		}
		res = append(res, (ys[i]-p)/p)
	}
	return res
}

// LogSpace transforms positive samples to natural-log space, returning an
// error if any value is non-positive (the paper performs its regressions in
// logarithmic space because sample volumes are not equidistant).
func LogSpace(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("stats: log-space transform requires positive values, got %v at %d", x, i)
		}
		out[i] = math.Log(x)
	}
	return out, nil
}
