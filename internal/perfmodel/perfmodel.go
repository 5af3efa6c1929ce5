// Package perfmodel implements the paper's empirical application
// performance models (§4-§5): execution time as a function of data volume,
// fitted by regression over probe measurements. Because sample volumes are
// not equidistant, the non-linear families are fitted in logarithmic space,
// exactly as §5 prescribes:
//
//	linear       y = a·x          (log space: Y = ln a + X)
//	affine       y = b + a·x      (linear-space least squares; the form of
//	                               the paper's Eqs. (1)-(4))
//	power law    y = a·x^b        (log space: Y = ln a + b·X)
//	log-quad     y = x^(a·ln x+b) (log space: Y = a·X² + b·X)
//	exponential  y = a·e^(b·x)    (log space: Y = ln a + b·x)
//
// Models predict, invert (how much data fits in a deadline) and expose the
// convexity classification of Fig. 2 that drives provisioning strategy.
package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Model is a fitted execution-time predictor. x is data volume in bytes;
// predictions are seconds.
type Model interface {
	// Name identifies the model family.
	Name() string
	// Predict returns the estimated execution time for volume x.
	Predict(x float64) float64
	// Invert returns the volume processable within y seconds.
	Invert(y float64) (float64, error)
	// R2 is the coefficient of determination of the fit (in the space the
	// family was fitted in).
	R2() float64
	// Shape classifies the curve's convexity (Fig. 2).
	Shape() Shape
	fmt.Stringer
}

// Shape is the convexity classification of Fig. 2: for f”> 0 it is always
// better to start new instances; for f” < 0 it is better to pack data up
// to the deadline.
type Shape int

// Shapes.
const (
	ShapeLinear Shape = iota
	ShapeConvex
	ShapeConcave
)

func (s Shape) String() string {
	switch s {
	case ShapeConvex:
		return "convex"
	case ShapeConcave:
		return "concave"
	default:
		return "linear"
	}
}

func checkFitInput(xs, ys []float64) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("perfmodel: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return stats.ErrInsufficientData
	}
	return nil
}

// Affine is y = B + A·x, the form of the paper's equations (1)-(4).
type Affine struct {
	A, B float64
	r2   float64
}

// Name implements Model.
func (m *Affine) Name() string { return "affine" }

// Predict implements Model.
func (m *Affine) Predict(x float64) float64 { return m.B + m.A*x }

// Invert implements Model.
func (m *Affine) Invert(y float64) (float64, error) {
	if m.A == 0 {
		return 0, fmt.Errorf("perfmodel: affine model has zero slope")
	}
	return (y - m.B) / m.A, nil
}

// R2 implements Model.
func (m *Affine) R2() float64 { return m.r2 }

// Shape implements Model.
func (m *Affine) Shape() Shape { return ShapeLinear }

func (m *Affine) String() string {
	return fmt.Sprintf("f(x) = %.6g + %.6g*x (R²=%.4f)", m.B, m.A, m.r2)
}

// FitAffine fits y = B + A·x by ordinary least squares in linear space.
func FitAffine(xs, ys []float64) (*Affine, error) {
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	return &Affine{A: fit.Slope, B: fit.Intercept, r2: fit.R2}, nil
}

// Proportional is y = A·x, fitted in log space (Y = ln a + X as in §5(1)).
type Proportional struct {
	A  float64
	r2 float64
}

// Name implements Model.
func (m *Proportional) Name() string { return "linear" }

// Predict implements Model.
func (m *Proportional) Predict(x float64) float64 { return m.A * x }

// Invert implements Model.
func (m *Proportional) Invert(y float64) (float64, error) {
	if m.A == 0 {
		return 0, fmt.Errorf("perfmodel: proportional model has zero slope")
	}
	return y / m.A, nil
}

// R2 implements Model.
func (m *Proportional) R2() float64 { return m.r2 }

// Shape implements Model.
func (m *Proportional) Shape() Shape { return ShapeLinear }

func (m *Proportional) String() string {
	return fmt.Sprintf("f(x) = %.6g*x (R²=%.4f)", m.A, m.r2)
}

// FitProportional fits y = A·x in log space: ln a = mean(Y - X).
func FitProportional(xs, ys []float64) (*Proportional, error) {
	if err := checkFitInput(xs, ys); err != nil {
		return nil, err
	}
	X, err := stats.LogSpace(xs)
	if err != nil {
		return nil, err
	}
	Y, err := stats.LogSpace(ys)
	if err != nil {
		return nil, err
	}
	var sum float64
	for i := range X {
		sum += Y[i] - X[i]
	}
	m := &Proportional{A: math.Exp(sum / float64(len(X)))}
	m.r2 = logSpaceR2(Y, func(i int) float64 { return math.Log(m.A) + X[i] })
	return m, nil
}

// PowerLaw is y = A·x^B, fitted in log-log space.
type PowerLaw struct {
	A, B float64
	r2   float64
}

// Name implements Model.
func (m *PowerLaw) Name() string { return "power-law" }

// Predict implements Model.
func (m *PowerLaw) Predict(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return m.A * math.Pow(x, m.B)
}

// Invert implements Model.
func (m *PowerLaw) Invert(y float64) (float64, error) {
	if m.A <= 0 || m.B == 0 || y <= 0 {
		return 0, fmt.Errorf("perfmodel: power law not invertible at y=%v", y)
	}
	return math.Pow(y/m.A, 1/m.B), nil
}

// R2 implements Model.
func (m *PowerLaw) R2() float64 { return m.r2 }

// Shape implements Model: b>1 is convex, b<1 concave (Fig. 2).
func (m *PowerLaw) Shape() Shape {
	switch {
	case m.B > 1:
		return ShapeConvex
	case m.B < 1:
		return ShapeConcave
	default:
		return ShapeLinear
	}
}

func (m *PowerLaw) String() string {
	return fmt.Sprintf("f(x) = %.6g*x^%.4f (R²=%.4f)", m.A, m.B, m.r2)
}

// FitPowerLaw fits y = A·x^B by least squares in log-log space.
func FitPowerLaw(xs, ys []float64) (*PowerLaw, error) {
	if err := checkFitInput(xs, ys); err != nil {
		return nil, err
	}
	X, err := stats.LogSpace(xs)
	if err != nil {
		return nil, err
	}
	Y, err := stats.LogSpace(ys)
	if err != nil {
		return nil, err
	}
	fit, err := stats.FitLinear(X, Y)
	if err != nil {
		return nil, err
	}
	return &PowerLaw{A: math.Exp(fit.Intercept), B: fit.Slope, r2: fit.R2}, nil
}

// LogQuad is y = x^(A·ln x + B), the paper's Y = a·X² + b·X log-space form.
type LogQuad struct {
	A, B float64
	r2   float64
}

// Name implements Model.
func (m *LogQuad) Name() string { return "log-quadratic" }

// Predict implements Model.
func (m *LogQuad) Predict(x float64) float64 {
	if x <= 0 {
		return 0
	}
	lx := math.Log(x)
	return math.Exp(m.A*lx*lx + m.B*lx)
}

// Invert implements Model: solve A·t² + B·t = ln y for t = ln x, taking
// the root that yields the larger volume (the economically relevant
// branch).
func (m *LogQuad) Invert(y float64) (float64, error) {
	if y <= 0 {
		return 0, fmt.Errorf("perfmodel: log-quad not invertible at y=%v", y)
	}
	ly := math.Log(y)
	if m.A == 0 {
		if m.B == 0 {
			return 0, fmt.Errorf("perfmodel: degenerate log-quad model")
		}
		return math.Exp(ly / m.B), nil
	}
	disc := m.B*m.B + 4*m.A*ly
	if disc < 0 {
		return 0, fmt.Errorf("perfmodel: log-quad has no real inverse at y=%v", y)
	}
	t1 := (-m.B + math.Sqrt(disc)) / (2 * m.A)
	t2 := (-m.B - math.Sqrt(disc)) / (2 * m.A)
	t := math.Max(t1, t2)
	return math.Exp(t), nil
}

// R2 implements Model.
func (m *LogQuad) R2() float64 { return m.r2 }

// Shape implements Model: exponent a·ln x + b grows with x when A > 0.
func (m *LogQuad) Shape() Shape {
	switch {
	case m.A > 0:
		return ShapeConvex
	case m.A < 0:
		return ShapeConcave
	default:
		if m.B > 1 {
			return ShapeConvex
		}
		if m.B < 1 {
			return ShapeConcave
		}
		return ShapeLinear
	}
}

func (m *LogQuad) String() string {
	return fmt.Sprintf("f(x) = x^(%.4g*ln x + %.4g) (R²=%.4f)", m.A, m.B, m.r2)
}

// FitLogQuad fits Y = A·X² + B·X in log space.
func FitLogQuad(xs, ys []float64) (*LogQuad, error) {
	if err := checkFitInput(xs, ys); err != nil {
		return nil, err
	}
	X, err := stats.LogSpace(xs)
	if err != nil {
		return nil, err
	}
	Y, err := stats.LogSpace(ys)
	if err != nil {
		return nil, err
	}
	fit, err := stats.FitQuadraticOrigin(X, Y)
	if err != nil {
		return nil, err
	}
	return &LogQuad{A: fit.A, B: fit.B, r2: fit.R2}, nil
}

// Exponential is y = A·e^(B·x), fitted as Y = ln a + b·x.
type Exponential struct {
	A, B float64
	r2   float64
}

// Name implements Model.
func (m *Exponential) Name() string { return "exponential" }

// Predict implements Model.
func (m *Exponential) Predict(x float64) float64 { return m.A * math.Exp(m.B*x) }

// Invert implements Model.
func (m *Exponential) Invert(y float64) (float64, error) {
	if m.A <= 0 || m.B == 0 || y <= 0 {
		return 0, fmt.Errorf("perfmodel: exponential not invertible at y=%v", y)
	}
	return math.Log(y/m.A) / m.B, nil
}

// R2 implements Model.
func (m *Exponential) R2() float64 { return m.r2 }

// Shape implements Model.
func (m *Exponential) Shape() Shape {
	if m.B > 0 {
		return ShapeConvex
	}
	if m.B < 0 {
		return ShapeConcave
	}
	return ShapeLinear
}

func (m *Exponential) String() string {
	return fmt.Sprintf("f(x) = %.6g*e^(%.4g*x) (R²=%.4f)", m.A, m.B, m.r2)
}

// FitExponential fits y = A·e^(B·x) by least squares on Y = ln y.
func FitExponential(xs, ys []float64) (*Exponential, error) {
	if err := checkFitInput(xs, ys); err != nil {
		return nil, err
	}
	Y, err := stats.LogSpace(ys)
	if err != nil {
		return nil, err
	}
	fit, err := stats.FitLinear(xs, Y)
	if err != nil {
		return nil, err
	}
	return &Exponential{A: math.Exp(fit.Intercept), B: fit.Slope, r2: fit.R2}, nil
}

// logSpaceR2 computes R² over log-space observations.
func logSpaceR2(Y []float64, pred func(i int) float64) float64 {
	mean := stats.Mean(Y)
	var ssRes, ssTot float64
	for i, y := range Y {
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

// FitAll fits every family and returns the successful fits.
func FitAll(xs, ys []float64) []Model {
	var out []Model
	if m, err := FitAffine(xs, ys); err == nil {
		out = append(out, m)
	}
	if m, err := FitProportional(xs, ys); err == nil {
		out = append(out, m)
	}
	if m, err := FitPowerLaw(xs, ys); err == nil {
		out = append(out, m)
	}
	if m, err := FitLogQuad(xs, ys); err == nil {
		out = append(out, m)
	}
	if m, err := FitExponential(xs, ys); err == nil {
		out = append(out, m)
	}
	return out
}

// Best returns the model with the highest R², or an error if none fitted.
func Best(models []Model) (Model, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("perfmodel: no fitted models")
	}
	best := models[0]
	for _, m := range models[1:] {
		if m.R2() > best.R2() {
			best = m
		}
	}
	return best, nil
}
