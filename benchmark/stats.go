package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; q = 0.5 is the median.
func quantile(sorted []float64, q float64) float64 {
	return interpolate(sorted, q*float64(len(sorted)-1))
}

// interpolate reads an ascending slice at a fractional index, clamped to
// its ends; an empty slice reads 0.
func interpolate(sorted []float64, pos float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos = math.Max(0, math.Min(pos, float64(len(sorted)-1)))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tail returns the highest percentile that still has at least ten
// samples beyond it, and the value there: with n samples that is the
// (n-10)/n point, sorted[n-11]. With ten samples or fewer no percentile
// qualifies; the maximum is returned with its own rank so the caller can
// still print a number, and the sample count printed beside it says how
// little it means.
func tail(sorted []float64) (value, pct float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return sorted[n-1], 100 * float64(n-1) / float64(n)
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure the bounds in BENCHMARK.json are calibrated
// against. Quartiles follow Python's statistics.quantiles(v, n=4)
// (exclusive method), which is what the acceptance check uses.
func spread(v []float64) (q1, med, q3, rel float64) {
	s := sortedCopy(v)
	excl := func(k float64) float64 { return interpolate(s, k*float64(len(s)+1)-1) }
	q1, med, q3 = excl(0.25), excl(0.5), excl(0.75)
	if med != 0 {
		rel = (q3 - q1) / math.Abs(med)
	}
	return q1, med, q3, rel
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeReps runs fn reps times and returns the median wall time in ms.
func timeReps(reps int, fn func() error) (float64, error) {
	ts := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}
