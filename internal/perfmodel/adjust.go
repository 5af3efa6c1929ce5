package perfmodel

import (
	"fmt"

	"repro/internal/stats"
)

// Adjustment is the paper's §5.2 deadline-derating: assuming the model's
// relative residuals (y-f(x))/f(x) are normally distributed, scheduling
// for the lowered deadline D/(1+A) bounds the probability of exceeding the
// true deadline D by MissProb.
type Adjustment struct {
	// A is the inflation factor a = z·σ + μ (z = 1.29 for a 10% miss).
	A float64
	// MissProb is the accepted probability of missing the deadline.
	MissProb float64
	// ResidualMean and ResidualStdDev are the sample moments of the
	// relative residuals the adjustment was derived from.
	ResidualMean   float64
	ResidualStdDev float64
	N              int
}

// AdjustDeadline returns the derated deadline D/(1+A). When A ≤ -1 the
// derate would be nonsensical (the model wildly over-predicts); the
// original deadline is returned unchanged.
func (a Adjustment) AdjustDeadline(d float64) float64 {
	if 1+a.A <= 0 {
		return d
	}
	return d / (1 + a.A)
}

func (a Adjustment) String() string {
	return fmt.Sprintf("a=%.4f (μ=%.4f σ=%.4f, miss≤%.0f%%)", a.A, a.ResidualMean, a.ResidualStdDev, a.MissProb*100)
}

// NewAdjustment derives the deadline adjustment from a fitted model and
// its calibration points.
func NewAdjustment(m Model, xs, ys []float64, missProb float64) (Adjustment, error) {
	if len(xs) != len(ys) {
		return Adjustment{}, fmt.Errorf("perfmodel: len(xs)=%d != len(ys)=%d", len(xs), len(ys))
	}
	rel := stats.RelativeResiduals(xs, ys, m.Predict)
	a, err := stats.DeadlineInflation(rel, missProb)
	if err != nil {
		return Adjustment{}, err
	}
	s := stats.Summarize(rel)
	return Adjustment{
		A:              a,
		MissProb:       missProb,
		ResidualMean:   s.Mean,
		ResidualStdDev: s.StdDev,
		N:              s.N,
	}, nil
}
