package stats

import (
	"fmt"
	"strings"
)

// Histogram accumulates counts of values into fixed-width bins, matching the
// frequency-distribution plots of Fig. 1 (10 kB bins for the HTML set, 1 kB
// bins for the text set). Values below zero are rejected; values at or above
// the cap are accumulated into an overflow count so long tails stay visible.
type Histogram struct {
	binWidth int64
	cap      int64 // values ≥ cap land in Overflow
	counts   []int64
	overflow int64
	total    int64
}

// NewHistogram creates a histogram with the given bin width covering
// [0, cap). Both must be positive and cap must be a multiple of binWidth.
func NewHistogram(binWidth, cap int64) (*Histogram, error) {
	if binWidth <= 0 {
		return nil, fmt.Errorf("stats: bin width must be positive, got %d", binWidth)
	}
	if cap <= 0 || cap%binWidth != 0 {
		return nil, fmt.Errorf("stats: cap %d must be a positive multiple of bin width %d", cap, binWidth)
	}
	return &Histogram{
		binWidth: binWidth,
		cap:      cap,
		counts:   make([]int64, cap/binWidth),
	}, nil
}

// Add records one observation.
func (h *Histogram) Add(v int64) error {
	if v < 0 {
		return fmt.Errorf("stats: histogram value must be non-negative, got %d", v)
	}
	h.total++
	if v >= h.cap {
		h.overflow++
		return nil
	}
	h.counts[v/h.binWidth]++
	return nil
}

// Bins returns a copy of the per-bin counts; bin i covers
// [i·binWidth, (i+1)·binWidth).
func (h *Histogram) Bins() []int64 { return append([]int64(nil), h.counts...) }

// Overflow returns the count of observations at or beyond the cap.
func (h *Histogram) Overflow() int64 { return h.overflow }

// FractionBelow returns the fraction of observations strictly below limit,
// counting whole bins only (limit should be a multiple of the bin width for
// an exact answer).
func (h *Histogram) FractionBelow(limit int64) float64 {
	if h.total == 0 {
		return 0
	}
	var below int64
	for i, c := range h.counts {
		if int64(i+1)*h.binWidth <= limit {
			below += c
		}
	}
	return float64(below) / float64(h.total)
}

// Render draws a textual bar chart of the first maxBins bins, the form the
// experiment harness uses to print Fig. 1.
func (h *Histogram) Render(maxBins, barWidth int) string {
	if maxBins <= 0 || maxBins > len(h.counts) {
		maxBins = len(h.counts)
	}
	var peak int64 = 1
	for i := 0; i < maxBins; i++ {
		if h.counts[i] > peak {
			peak = h.counts[i]
		}
	}
	var b strings.Builder
	for i := 0; i < maxBins; i++ {
		n := int(h.counts[i] * int64(barWidth) / peak)
		fmt.Fprintf(&b, "%8d-%-8d %8d %s\n",
			int64(i)*h.binWidth, int64(i+1)*h.binWidth, h.counts[i], strings.Repeat("#", n))
	}
	if h.overflow > 0 {
		fmt.Fprintf(&b, "%8d+%9s %8d (tail)\n", h.cap, "", h.overflow)
	}
	return b.String()
}
