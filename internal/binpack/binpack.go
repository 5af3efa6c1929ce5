// Package binpack implements the bin-packing heuristics the paper uses to
// reshape corpora: first-fit in original order (the order the paper keeps
// for POS scheduling, §5.2), first-fit decreasing, the subset-sum first-fit
// heuristic [Vazirani 2003] used to build probe sets (§4), and least-loaded
// balancing for the uniform-bins improvement of Fig. 8(b).
//
// Items are (ID, Size) pairs; packing never splits an item — the paper's
// files are unsplittable units, so an item larger than the bin capacity gets
// a dedicated oversized bin rather than an error.
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
	Used      int64
	Oversized bool // single item exceeding the capacity
}

// Free returns the remaining capacity (negative for oversized bins).
func (b *Bin) Free() int64 { return b.Capacity - b.Used }

// FillFraction returns Used/Capacity (may exceed 1 for oversized bins).
func (b *Bin) FillFraction() float64 {
	if b.Capacity == 0 {
		return 0
	}
	return float64(b.Used) / float64(b.Capacity)
}

func (b *Bin) add(it Item) {
	b.Items = append(b.Items, it)
	b.Used += it.Size
}

func validate(items []Item, capacity int64) error {
	if capacity <= 0 {
		return fmt.Errorf("binpack: capacity must be positive, got %d", capacity)
	}
	for i, it := range items {
		if it.Size < 0 {
			return fmt.Errorf("binpack: item %d (%q) has negative size %d", i, it.ID, it.Size)
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
// itemAt(i) the corresponding item; all bins share one flat item slab
// (capacity-bounded subslices, so a caller appending to one bin's Items
// reallocates instead of clobbering its neighbour).
func buildBins(metas []binMeta, capacity int64, n int, binAt []int32, itemAt func(i int) Item) []*Bin {
	slab := make([]Item, 0, n)
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
		off = end
		bins[bi] = b
	}
	for i := 0; i < n; i++ {
		b := bins[binAt[i]]
		b.Items = append(b.Items, itemAt(i))
	}
	return bins
}

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
	if capacity <= 0 {
		return nil, fmt.Errorf("binpack: capacity must be positive, got %d", capacity)
	}
	n := len(items)
	binAt := make([]int32, n)
	var metas []binMeta
	ix := newBinIndex()
	frontier := -1 // position of the open frontier bin; residual tracked here, not in the tree
	var frontierFree int64
	for i, it := range items {
		if it.Size < 0 {
			return nil, fmt.Errorf("binpack: item %d (%q) has negative size %d", i, it.ID, it.Size)
		}
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
	return buildBins(metas, capacity, n, binAt, func(i int) Item { return items[i] }), nil
}

// FirstFitDecreasing sorts items by decreasing size (stable, so equal-size
// items keep their relative order) before running FirstFit. It packs tighter
// but, as the paper notes, concentrates large files in the early bins.
func FirstFitDecreasing(items []Item, capacity int64) ([]*Bin, error) {
	return FirstFit(sortedBySizeDesc(items), capacity)
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
	if err := validate(items, capacity); err != nil {
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
	return buildBins(metas, capacity, n, binAt, func(p int) Item { return items[order[p].idx] }), nil
}

// LeastLoaded distributes items across exactly n bins, always placing the
// next item into the currently least-loaded bin. With items pre-sorted by
// decreasing size this is the LPT rule; the paper's "uniform bins"
// improvement (Fig. 8(b)) corresponds to balanced bins of volume ≈ V/n.
func LeastLoaded(items []Item, n int) ([]*Bin, error) {
	if n <= 0 {
		return nil, fmt.Errorf("binpack: bin count must be positive, got %d", n)
	}
	for i, it := range items {
		if it.Size < 0 {
			return nil, fmt.Errorf("binpack: item %d (%q) has negative size %d", i, it.ID, it.Size)
		}
	}
	var total int64
	for _, it := range items {
		total += it.Size
	}
	capacity := total / int64(n)
	if total%int64(n) != 0 {
		capacity++
	}
	if capacity == 0 {
		capacity = 1
	}
	bins := make([]*Bin, n)
	for i := range bins {
		bins[i] = &Bin{Capacity: capacity}
	}
	for _, it := range items {
		best := 0
		for i := 1; i < n; i++ {
			if bins[i].Used < bins[best].Used {
				best = i
			}
		}
		bins[best].add(it)
	}
	// ⌈V/n⌉ is a balancing target, not a hard cap: item granularity can
	// overshoot it slightly. Widen capacities to the realised maximum so
	// the packing invariants hold.
	var maxUsed int64
	for _, b := range bins {
		if b.Used > maxUsed {
			maxUsed = b.Used
		}
	}
	if maxUsed > capacity {
		for _, b := range bins {
			b.Capacity = maxUsed
		}
	}
	return bins, nil
}

// LeastLoadedDecreasing sorts items by decreasing size before LeastLoaded
// (the classic LPT balancing rule, tighter max-bin bounds).
func LeastLoadedDecreasing(items []Item, n int) ([]*Bin, error) {
	return LeastLoaded(sortedBySizeDesc(items), n)
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

// Verify checks the packing invariants: every input item appears in exactly
// one bin, bin Used fields match their contents, and no non-oversized bin
// exceeds its capacity. It returns a descriptive error on the first
// violation. Tests and the probe harness call this after every pack.
func Verify(items []Item, bins []*Bin) error {
	want := make(map[string]int64, len(items))
	for _, it := range items {
		if _, dup := want[it.ID]; dup {
			return fmt.Errorf("binpack: duplicate item ID %q in input", it.ID)
		}
		want[it.ID] = it.Size
	}
	seen := make(map[string]bool, len(items))
	for bi, b := range bins {
		var used int64
		for _, it := range b.Items {
			size, ok := want[it.ID]
			if !ok {
				return fmt.Errorf("binpack: bin %d contains unknown item %q", bi, it.ID)
			}
			if size != it.Size {
				return fmt.Errorf("binpack: item %q size changed: %d -> %d", it.ID, size, it.Size)
			}
			if seen[it.ID] {
				return fmt.Errorf("binpack: item %q packed twice", it.ID)
			}
			seen[it.ID] = true
			used += it.Size
		}
		if used != b.Used {
			return fmt.Errorf("binpack: bin %d Used=%d but contents sum to %d", bi, b.Used, used)
		}
		if !b.Oversized && b.Used > b.Capacity {
			return fmt.Errorf("binpack: bin %d overfull: %d > %d", bi, b.Used, b.Capacity)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("binpack: packed %d of %d items", len(seen), len(want))
	}
	return nil
}
