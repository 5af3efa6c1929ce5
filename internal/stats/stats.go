// Package stats provides the small statistical toolkit the reproduction
// needs: descriptive summaries, least-squares regression (plain, weighted,
// quadratic through the origin and log-space), relative residuals and
// normal-distribution quantiles used for the paper's deadline-adjustment
// rule.
//
// Everything is dependency-free and deterministic. The regression helpers
// deliberately mirror the fitting procedures of §4-§5 of the paper rather
// than offering a general statistics library.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInsufficientData is returned when an estimator is given fewer points
// than it mathematically requires.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes descriptive statistics for xs. It returns a zero
// Summary when xs is empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// CV returns the coefficient of variation (stddev/mean). It reports +Inf for
// a zero mean with nonzero spread and 0 for a degenerate sample.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		if s.StdDev == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return s.StdDev / math.Abs(s.Mean)
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g", s.N, s.Mean, s.StdDev, s.Min, s.Max)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
