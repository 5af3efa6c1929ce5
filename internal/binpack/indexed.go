package binpack

// Index structures behind the O(n log n) packers. FirstFit needs "the
// first open bin with at least `size` residual capacity"; SubsetSumFirstFit
// needs "the largest not-yet-packed item that still fits". Both queries are
// answered in O(log n) — a max segment tree over bin residuals for the
// former, a binary search plus a next-unused skip pointer for the latter —
// replacing the O(n·bins) linear scans, which live on as the oracles in
// linear_test.go.

// binIndex is a max segment tree over per-bin residual capacities, in bin
// creation order. Closed slots (oversized bins, not-yet-opened positions)
// hold -1 so they never satisfy a `free >= size` query, even for size 0.
type binIndex struct {
	leaves int     // number of leaf slots (power of two)
	tree   []int64 // 1-based heap layout; leaves at [leaves, 2*leaves)
	count  int     // bins registered so far
}

// newBinIndex starts small and doubles on demand, so query depth tracks
// log(actual bins), not log(items) — packings that fill few large bins pay
// a few tree levels, not the worst case's.
func newBinIndex() *binIndex {
	const initialLeaves = 8
	t := make([]int64, 2*initialLeaves)
	for i := range t {
		t[i] = -1
	}
	return &binIndex{leaves: initialLeaves, tree: t}
}

// push registers the next bin with the given residual capacity; pass -1
// for bins that must never accept items (oversized).
func (ix *binIndex) push(free int64) {
	if ix.count == ix.leaves {
		ix.grow()
	}
	ix.set(ix.count, free)
	ix.count++
}

// set updates bin pos's residual capacity.
func (ix *binIndex) set(pos int, free int64) {
	i := ix.leaves + pos
	ix.tree[i] = free
	for i >>= 1; i >= 1; i >>= 1 {
		l, r := ix.tree[2*i], ix.tree[2*i+1]
		if l < r {
			l = r
		}
		if ix.tree[i] == l {
			break
		}
		ix.tree[i] = l
	}
}

// findFirst returns the lowest bin position with residual capacity >= need,
// or -1 when no open bin fits.
func (ix *binIndex) findFirst(need int64) int {
	if ix.tree[1] < need {
		return -1
	}
	i := 1
	for i < ix.leaves {
		if ix.tree[2*i] >= need {
			i = 2 * i
		} else {
			i = 2*i + 1
		}
	}
	return i - ix.leaves
}

func (ix *binIndex) grow() {
	old := ix.tree[ix.leaves : ix.leaves+ix.count]
	leaves := ix.leaves * 2
	t := make([]int64, 2*leaves)
	for i := range t {
		t[i] = -1
	}
	nx := &binIndex{leaves: leaves, tree: t}
	for pos, free := range old {
		nx.set(pos, free)
	}
	ix.leaves, ix.tree = nx.leaves, nx.tree
}

// scanOrder is the subset-sum scan order: items by decreasing size, equal
// sizes in input order. The (size, idx) key is a strict total order, so the
// unstable-but-faster generic sort yields exactly the stable ordering.
type scanOrder []sizeIdx

type sizeIdx struct {
	size int64
	idx  int32
}

func sizeOrder(items []Item) scanOrder {
	order := make(scanOrder, len(items))
	for i, it := range items {
		order[i] = sizeIdx{size: it.Size, idx: int32(i)}
	}
	radixSortSizeDesc(order)
	return order
}

// radixSortSizeDesc sorts by decreasing size, stable on idx, with an LSD
// radix sort over the complemented size key (ascending on ^size =
// descending on size; LSD stability preserves input order on ties).
// Byte passes whose digit is constant across the slice — all of the high
// ones, for realistic file sizes — are skipped, so a corpus of sub-16MB
// files pays 3 passes, not 8. Roughly 10× faster than the comparator sort
// the packers' profiles were previously dominated by.
func radixSortSizeDesc(order scanOrder) {
	n := len(order)
	if n < 64 {
		// Insertion sort for small inputs; same total order.
		for i := 1; i < n; i++ {
			for j := i; j > 0; j-- {
				a, b := order[j-1], order[j]
				if a.size > b.size || (a.size == b.size && a.idx < b.idx) {
					break
				}
				order[j-1], order[j] = b, a
			}
		}
		return
	}
	buf := make(scanOrder, n)
	src, dst := order, buf
	swapped := false
	for shift := uint(0); shift < 64; shift += 8 {
		var counts [256]int
		for _, e := range src {
			counts[byte(^uint64(e.size)>>shift)]++
		}
		if counts[byte(^uint64(src[0].size)>>shift)] == n {
			continue // constant digit: pass is a no-op
		}
		pos := 0
		var offsets [256]int
		for d := 0; d < 256; d++ {
			offsets[d] = pos
			pos += counts[d]
		}
		for _, e := range src {
			d := byte(^uint64(e.size) >> shift)
			dst[offsets[d]] = e
			offsets[d]++
		}
		src, dst = dst, src
		swapped = !swapped
	}
	if swapped {
		copy(order, src)
	}
}

// decreasing validates the items, runs pack over them in decreasing-size
// order (equal sizes in input order, as sort.SliceStable would give, via
// the integer-keyed sort) and maps the bins' positions back through that
// order, so they index the caller's slice.
func decreasing(items []Item, limit int64, name string, pack func(sorted []Item) ([]*Bin, error)) ([]*Bin, error) {
	if err := validate(items, limit, name); err != nil {
		return nil, err
	}
	order := sizeOrder(items)
	sorted := make([]Item, len(items))
	for i, o := range order {
		sorted[i] = items[o.idx]
	}
	bins, err := pack(sorted)
	if err != nil {
		return nil, err
	}
	for _, b := range bins {
		for j, p := range b.Pos {
			b.Pos[j] = order[p].idx
		}
	}
	return bins, nil
}

// searchFit returns the first scan position whose item size is <= free.
// Sizes are non-increasing along the order, so plain binary search works.
func (o scanOrder) searchFit(free int64) int {
	lo, hi := 0, len(o)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o[mid].size <= free {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// nextUnused is a union-find "skip to the next unconsumed position"
// pointer over a fixed ordering: find(p) returns the smallest position
// >= p not yet consumed (or n), in near-constant amortised time.
type nextUnused []int

func newNextUnused(n int) nextUnused {
	next := make(nextUnused, n+1)
	for i := range next {
		next[i] = i
	}
	return next
}

func (nx nextUnused) find(p int) int {
	for nx[p] != p {
		nx[p] = nx[nx[p]] // path halving
		p = nx[p]
	}
	return p
}

func (nx nextUnused) consume(p int) { nx[p] = p + 1 }
