// Package binpack implements the bin-packing heuristics the paper uses to
// reshape corpora: first-fit in original order (the order the paper keeps
// for POS scheduling, §5.2), first-fit decreasing, the subset-sum first-fit
// heuristic [Vazirani 2003] used to build probe sets (§4), and least-loaded
// balancing for the uniform-bins improvement of Fig. 8(b).
//
// Items are (ID, Size) pairs whose identity is their input position: bins
// record it (Bin.Pos), Verify checks it, and callers index their per-item
// data by it. Packing never splits an item — the paper's files are
// unsplittable units, so an item larger than the bin capacity gets a
// dedicated oversized bin rather than an error.
package binpack

import "fmt"

// Item is an unsplittable unit of data to pack, typically one input file.
type Item struct {
	ID   string
	Size int64
}

// Bin is a set of items packed against a capacity.
type Bin struct {
	Capacity  int64
	Items     []Item
	Pos       []int32 // each item's position in the packer's input, parallel to Items
	Used      int64
	Oversized bool // single item exceeding the capacity
}

// FillFraction returns Used/Capacity (may exceed 1 for oversized bins).
func (b *Bin) FillFraction() float64 {
	if b.Capacity == 0 {
		return 0
	}
	return float64(b.Used) / float64(b.Capacity)
}

// add appends the item found at input position pos.
func (b *Bin) add(it Item, pos int) {
	b.Items = append(b.Items, it)
	b.Pos = append(b.Pos, int32(pos))
	b.Used += it.Size
}

// oversizedBin is the dedicated bin of an item larger than the capacity.
func oversizedBin(capacity int64, it Item, pos int) *Bin {
	return &Bin{Capacity: capacity, Items: []Item{it}, Pos: []int32{int32(pos)}, Used: it.Size, Oversized: true}
}

// validate is every packer's input check: limit (a capacity, or a bin
// count, as named) must be positive and no item size negative.
func validate(items []Item, limit int64, name string) error {
	if limit <= 0 {
		return fmt.Errorf("binpack: %s must be positive, got %d", name, limit)
	}
	for i, it := range items {
		if it.Size < 0 {
			return fmt.Errorf("binpack: item at position %d has negative size %d", i, it.Size)
		}
	}
	return nil
}

// binMeta accumulates a bin's totals during the placement pass; the Bin
// structs and their Items slices are materialised afterwards with exact
// sizes (see buildBins), avoiding the append-growth garbage that dominates
// the naive packer's profile.
type binMeta struct {
	used      int64
	count     int32
	oversized bool
}

// buildBins materialises bins from per-item placements. binAt[i] is the
// bin index of the i-th placement, in the order placements were made, and
// posAt(i) the input position of the item placed; all bins share one flat
// item slab and one position slab (capacity-bounded subslices, so a caller
// appending to one bin reallocates instead of clobbering its neighbour).
func buildBins(metas []binMeta, capacity int64, items []Item, binAt []int32, posAt func(i int) int32) []*Bin {
	n := len(items)
	slab := make([]Item, 0, n)
	posSlab := make([]int32, 0, n)
	structs := make([]Bin, len(metas))
	bins := make([]*Bin, len(metas))
	off := 0
	for bi, m := range metas {
		b := &structs[bi]
		b.Capacity = capacity
		b.Used = m.used
		b.Oversized = m.oversized
		end := off + int(m.count)
		b.Items = slab[off:off:end]
		b.Pos = posSlab[off:off:end]
		off = end
		bins[bi] = b
	}
	for i := 0; i < n; i++ {
		b := bins[binAt[i]]
		p := posAt(i)
		b.Items = append(b.Items, items[p])
		b.Pos = append(b.Pos, p)
	}
	return bins
}

// inputOrder is buildBins' posAt for packers that place items in input
// order.
func inputOrder(i int) int32 { return int32(i) }

// FirstFit packs the items, in the order given, each into the first open bin
// with room, opening a new bin when none fits. This is the ordering the
// paper deliberately keeps for the POS workload so that large files do not
// cluster in the first bins (§5.2).
//
// Bins already closed off by the advancing frontier live in a max segment
// tree over their residual capacities, so "the first earlier bin with room"
// is an O(log bins) query — and the frontier bin itself (where the vast
// majority of items land when items are much smaller than the capacity) is
// kept outside the tree for an O(1) fast path. The output is identical
// bin-for-bin to the O(n·bins) linear scan kept in linear_test.go.
func FirstFit(items []Item, capacity int64) ([]*Bin, error) {
	if err := validate(items, capacity, "capacity"); err != nil {
		return nil, err
	}
	n := len(items)
	binAt := make([]int32, n)
	var metas []binMeta
	ix := newBinIndex()
	frontier := -1 // position of the open frontier bin; residual tracked here, not in the tree
	var frontierFree int64
	for i, it := range items {
		if it.Size > capacity {
			// The frontier keeps its position; the oversized bin's tree slot
			// stays closed (-1) so queries never land on it.
			metas = append(metas, binMeta{used: it.Size, count: 1, oversized: true})
			ix.push(-1)
			binAt[i] = int32(len(metas) - 1)
			continue
		}
		var pos int
		switch {
		case ix.count > 0 && ix.tree[1] >= it.Size:
			// Some closed bin fits; all closed regular bins precede the
			// frontier, so the leftmost of them is the first-fit choice.
			pos = ix.findFirst(it.Size)
			m := &metas[pos]
			m.used += it.Size
			m.count++
			ix.set(pos, capacity-m.used)
		case frontier >= 0 && frontierFree >= it.Size:
			pos = frontier
			m := &metas[pos]
			m.used += it.Size
			m.count++
			frontierFree -= it.Size
		default:
			// Close the old frontier into the tree and open a new bin.
			if frontier >= 0 {
				ix.set(frontier, frontierFree)
			}
			metas = append(metas, binMeta{used: it.Size, count: 1})
			pos = len(metas) - 1
			ix.push(-1)
			frontier = pos
			frontierFree = capacity - it.Size
		}
		binAt[i] = int32(pos)
	}
	return buildBins(metas, capacity, items, binAt, inputOrder), nil
}

// FirstFitDecreasing sorts items by decreasing size (stable, so equal-size
// items keep their relative order) before running FirstFit. It packs tighter
// but, as the paper notes, concentrates large files in the early bins.
func FirstFitDecreasing(items []Item, capacity int64) ([]*Bin, error) {
	return decreasing(items, capacity, "capacity", func(sorted []Item) ([]*Bin, error) { return FirstFit(sorted, capacity) })
}

// SubsetSumFirstFit packs items using the subset-sum first-fit heuristic the
// paper cites for probe construction: bins are filled one at a time, each
// with a greedy approximation of the fullest subset of the remaining items
// (scan remaining items in decreasing size order, take everything that still
// fits). The greedy scan guarantees each closed bin is at least half full
// whenever enough data remains.
//
// Because sizes are non-increasing along the scan order, "take everything
// that fits" is equivalent to repeatedly taking the first remaining item
// whose size is at most the bin's residual capacity — found here by binary
// search plus a next-unused skip pointer, O(log n) per placement instead of
// the O(n)-per-bin rescan of the reference in linear_test.go. The output
// is identical bin-for-bin.
func SubsetSumFirstFit(items []Item, capacity int64) ([]*Bin, error) {
	if err := validate(items, capacity, "capacity"); err != nil {
		return nil, err
	}
	n := len(items)
	order := sizeOrder(items)
	next := newNextUnused(n)
	binAt := make([]int32, n) // bin index per scan position
	var metas []binMeta

	// Oversized items lead the decreasing-size order; the linear scan emits
	// each as its own bin the moment it is encountered, i.e. all of them
	// first, before any regular bin.
	pos := 0
	for pos < n && order[pos].size > capacity {
		metas = append(metas, binMeta{used: order[pos].size, count: 1, oversized: true})
		binAt[pos] = int32(len(metas) - 1)
		next.consume(pos)
		pos++
	}
	remaining := n - pos
	for remaining > 0 {
		var m binMeta
		bi := int32(len(metas))
		free := capacity
		for {
			// First scan position whose item fits (sizes are non-increasing
			// along the order, so binary search applies); the next unused
			// position at or after it is the item the linear scan would take.
			p := next.find(order.searchFit(free))
			if p >= n {
				break
			}
			m.used += order[p].size
			m.count++
			free = capacity - m.used
			binAt[p] = bi
			next.consume(p)
			remaining--
		}
		if m.count == 0 {
			break // unreachable: every remaining item fits an empty bin
		}
		metas = append(metas, m)
	}
	// Within a bin, items appear in scan order (decreasing size), exactly as
	// the linear reference appends them.
	return buildBins(metas, capacity, items, binAt, func(p int) int32 { return order[p].idx }), nil
}

// LeastLoaded distributes items across exactly n bins, always placing the
// next item into the currently least-loaded bin. With items pre-sorted by
// decreasing size this is the LPT rule; the paper's "uniform bins"
// improvement (Fig. 8(b)) corresponds to balanced bins of volume ≈ V/n.
func LeastLoaded(items []Item, n int) ([]*Bin, error) {
	if err := validate(items, int64(n), "bin count"); err != nil {
		return nil, err
	}
	total := TotalSize(items)
	capacity := total / int64(n)
	if total%int64(n) != 0 {
		capacity++
	}
	if capacity == 0 {
		capacity = 1
	}
	metas := make([]binMeta, n)
	binAt := make([]int32, len(items))
	for p, it := range items {
		best := 0
		for i := 1; i < n; i++ {
			if metas[i].used < metas[best].used {
				best = i
			}
		}
		metas[best].used += it.Size
		metas[best].count++
		binAt[p] = int32(best)
	}
	// ⌈V/n⌉ is a balancing target, not a hard cap: item granularity can
	// overshoot it slightly. Widen the capacity to the realised maximum so
	// the packing invariants hold.
	for _, m := range metas {
		capacity = max(capacity, m.used)
	}
	return buildBins(metas, capacity, items, binAt, inputOrder), nil
}

// Stats summarises the quality of a packing.
type Stats struct {
	Bins          int
	Oversized     int
	TotalVolume   int64
	TotalCapacity int64
	MinUsed       int64
	MaxUsed       int64
	MeanFill      float64 // mean fill fraction over non-oversized bins
}

// Summarize computes packing-quality statistics.
func Summarize(bins []*Bin) Stats {
	s := Stats{Bins: len(bins)}
	if len(bins) == 0 {
		return s
	}
	s.MinUsed = bins[0].Used
	var fillSum float64
	regular := 0
	for _, b := range bins {
		s.TotalVolume += b.Used
		s.TotalCapacity += b.Capacity
		if b.Used < s.MinUsed {
			s.MinUsed = b.Used
		}
		if b.Used > s.MaxUsed {
			s.MaxUsed = b.Used
		}
		if b.Oversized {
			s.Oversized++
		} else {
			fillSum += b.FillFraction()
			regular++
		}
	}
	if regular > 0 {
		s.MeanFill = fillSum / float64(regular)
	}
	return s
}

// TotalSize returns the summed size of the items.
func TotalSize(items []Item) int64 {
	var total int64
	for _, it := range items {
		total += it.Size
	}
	return total
}

// Verify checks the packing invariants: each bin has one input position
// per item, every position appears in exactly one bin with its input's
// size, bin Used fields match their contents, and no non-oversized bin
// exceeds its capacity. It returns an error on the first violation and
// allocates one flag per input item; the packing callers run it after
// every pack.
func Verify(items []Item, bins []*Bin) error {
	seen := make([]bool, len(items))
	packed := 0
	for bi, b := range bins {
		if len(b.Pos) != len(b.Items) {
			return fmt.Errorf("binpack: bin %d records %d positions for %d items", bi, len(b.Pos), len(b.Items))
		}
		var used int64
		for j, p := range b.Pos {
			if p < 0 || int(p) >= len(items) {
				return fmt.Errorf("binpack: bin %d item %d has position %d, input holds %d items", bi, j, p, len(items))
			}
			if seen[p] {
				return fmt.Errorf("binpack: item at position %d packed twice", p)
			}
			seen[p] = true
			if size := b.Items[j].Size; size != items[p].Size {
				return fmt.Errorf("binpack: item at position %d size changed: %d -> %d", p, items[p].Size, size)
			}
			used += b.Items[j].Size
		}
		packed += len(b.Pos)
		if used != b.Used {
			return fmt.Errorf("binpack: bin %d Used=%d but contents sum to %d", bi, b.Used, used)
		}
		if !b.Oversized && b.Used > b.Capacity {
			return fmt.Errorf("binpack: bin %d overfull: %d > %d", bi, b.Used, b.Capacity)
		}
	}
	if packed != len(items) {
		return fmt.Errorf("binpack: packed %d of %d items", packed, len(items))
	}
	return nil
}
