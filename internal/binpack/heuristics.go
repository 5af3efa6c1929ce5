package binpack

// Additional classical heuristics, used by the ablation benchmarks to
// situate the paper's choices: NextFit (the cheapest possible packer),
// BestFit (tightest per-item placement) and BestFitDecreasing.

// NextFit packs items in order, keeping only the latest bin open: an item
// that does not fit closes the bin and opens a new one. O(n), the weakest
// quality bound (2·OPT), but the only heuristic with streaming behaviour —
// relevant when the corpus cannot be held in memory.
func NextFit(items []Item, capacity int64) ([]*Bin, error) {
	if err := validate(items, capacity, "capacity"); err != nil {
		return nil, err
	}
	var bins []*Bin
	var open *Bin
	for p, it := range items {
		if it.Size > capacity {
			bins = append(bins, oversizedBin(capacity, it, p))
			continue
		}
		if open == nil || open.Free() < it.Size {
			open = &Bin{Capacity: capacity}
			bins = append(bins, open)
		}
		open.add(it, p)
	}
	return bins, nil
}

// BestFit places each item into the open bin with the least remaining
// space that still fits it, opening a new bin when none does.
func BestFit(items []Item, capacity int64) ([]*Bin, error) {
	if err := validate(items, capacity, "capacity"); err != nil {
		return nil, err
	}
	var bins []*Bin
	for p, it := range items {
		if it.Size > capacity {
			bins = append(bins, oversizedBin(capacity, it, p))
			continue
		}
		best := -1
		var bestFree int64
		for i, b := range bins {
			if b.Oversized {
				continue
			}
			free := b.Free()
			if free >= it.Size && (best == -1 || free < bestFree) {
				best = i
				bestFree = free
			}
		}
		if best == -1 {
			nb := &Bin{Capacity: capacity}
			nb.add(it, p)
			bins = append(bins, nb)
			continue
		}
		bins[best].add(it, p)
	}
	return bins, nil
}

// BestFitDecreasing sorts items by decreasing size (stable) before BestFit.
func BestFitDecreasing(items []Item, capacity int64) ([]*Bin, error) {
	return decreasing(items, capacity, "capacity", func(sorted []Item) ([]*Bin, error) { return BestFit(sorted, capacity) })
}
