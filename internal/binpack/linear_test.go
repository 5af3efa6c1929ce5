package binpack

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/corpus"
	"repro/internal/stats"
)

// The O(n·bins) packers the indexed ones replaced, kept as oracles: the
// differential tests in indexed_test.go require bin-for-bin equality, and
// the two Linear benchmarks here are the baselines BenchmarkFirstFit10k /
// BenchmarkSubsetSumFirstFit10k below are read against (same items:
// 10 000 draws from the text corpus's size distribution).

// FirstFitLinear is the O(n·bins) reference implementation of FirstFit —
// a plain scan over open bins per item: the oracle the differential tests
// hold the indexed packer to, and the baseline of the benchmark below.
func FirstFitLinear(items []Item, capacity int64) ([]*Bin, error) {
	if err := validate(items, capacity, "capacity"); err != nil {
		return nil, err
	}
	var bins []*Bin
	for p, it := range items {
		if it.Size > capacity {
			bins = append(bins, oversizedBin(capacity, it, p))
			continue
		}
		placed := false
		for _, b := range bins {
			if !b.Oversized && b.Capacity-b.Used >= it.Size {
				b.add(it, p)
				placed = true
				break
			}
		}
		if !placed {
			nb := &Bin{Capacity: capacity}
			nb.add(it, p)
			bins = append(bins, nb)
		}
	}
	return bins, nil
}

// SubsetSumFirstFitLinear is the O(n·bins) reference implementation of
// SubsetSumFirstFit — a full rescan of the remaining items per bin: the
// oracle for the indexed subset-sum packer and its benchmark baseline.
func SubsetSumFirstFitLinear(items []Item, capacity int64) ([]*Bin, error) {
	if err := validate(items, capacity, "capacity"); err != nil {
		return nil, err
	}
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return items[order[a]].Size > items[order[b]].Size })
	used := make([]bool, len(items))
	remaining := len(items)

	var bins []*Bin
	for remaining > 0 {
		b := &Bin{Capacity: capacity}
		for _, idx := range order {
			if used[idx] {
				continue
			}
			it := items[idx]
			if it.Size > capacity {
				// Oversized items are emitted as their own bins immediately.
				bins = append(bins, oversizedBin(capacity, it, idx))
				used[idx] = true
				remaining--
				continue
			}
			if b.Capacity-b.Used >= it.Size {
				b.add(it, idx)
				used[idx] = true
				remaining--
			}
		}
		if len(b.Items) > 0 {
			bins = append(bins, b)
		}
	}
	return bins, nil
}

func benchItems(n int) []Item {
	dist := corpus.Text400K(1).Sizes
	r := stats.NewRand(1, "bench-items")
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("f%06d", i), Size: dist.Sample(r)}
	}
	return items
}

// BenchmarkFirstFitLinear10k is the O(n·bins) reference scan the indexed
// FirstFit replaced; kept as the speedup baseline.
func BenchmarkFirstFitLinear10k(b *testing.B) {
	items := benchItems(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FirstFitLinear(items, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubsetSumFirstFitLinear10k is the quadratic reference for the
// indexed subset-sum packer.
func BenchmarkSubsetSumFirstFitLinear10k(b *testing.B) {
	items := benchItems(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubsetSumFirstFitLinear(items, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstFit10k(b *testing.B) {
	items := benchItems(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FirstFit(items, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetSumFirstFit10k(b *testing.B) {
	items := benchItems(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SubsetSumFirstFit(items, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeastLoaded10k(b *testing.B) {
	items := benchItems(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastLoaded(items, 27); err != nil {
			b.Fatal(err)
		}
	}
}
