package textproc

import (
	"bytes"
	"math/bits"

	"repro/internal/errs"
	"repro/internal/fnv64"
)

// MultiSearcher counts occurrences of N literal patterns in one pass over
// the haystack. Every occurrence is counted, overlaps included, and the
// folded variant lowercases ASCII letters on both sides — the counts of a
// single-pattern Boyer–Moore–Horspool search per pattern, which the tests
// hold it to (textproc/bmhtest).
//
// The matcher state is the entire cross-block carry: feeding a stream in
// arbitrary block splits yields the same counts as one contiguous buffer,
// because a match straddling a boundary is simply a matcher position that
// crosses a Feed call. No input bytes are ever re-buffered.
//
// Two engines share that contract (DESIGN.md §9); construction builds
// only the one a pattern set runs. Both index their tables
// by the raw input byte and fold at build time, so a folded searcher runs
// the same loops as an exact one, with no per-byte fold load:
//
//   - bitap (shift-and), used when the patterns' total length fits the 64
//     bit positions of one machine word. Per input byte the whole matcher
//     is D = ((D<<1)|init) & masks[c], with the mask load off the critical
//     path (its address depends only on the input byte, not on D), where
//     an automaton walk pays load-to-use latency on every byte because the
//     next row address depends on the state just loaded. When the set also
//     leaves room for two sticky bits after each pattern (total + 2 ×
//     patterns ≤ 64), three of those steps compose into one:
//     D = ((D<<3) & M) | J, where M and J depend only on the three input
//     bytes. The chain D rides then pays one shift-and-or per three bytes.
//
//   - Aho–Corasick with a dense byte-transition table, for pattern sets
//     too large for bitap. States are renumbered breadth-first and the
//     table is split hot/cold: the first 256 near-root states interleave
//     byte-major (hot[c<<8|s], padded to a full 256x256 so indexing is a
//     shift) so one input byte's candidate transitions share cache
//     lines, deeper states keep the classic state-major rows. Output sets are flattened into one offsets+flat
//     pair behind a per-state has-output bitmap, so the common no-match
//     byte is one transition load plus one bit test — never a
//     slice-header load. At the root, a skip loop jumps over bytes that
//     cannot start any pattern (bytes.IndexByte when only one byte can),
//     off the table-walk dependency chain entirely.
type MultiSearcher struct {
	patterns []string

	// bitap engine (eligible pattern sets only).
	bitap      bool
	masks      [256]uint64 // bit j set iff pattern byte at position j matches input byte c
	initMask   uint64      // bits at each pattern's first position
	matchMask  uint64      // bits at each pattern's last position
	strideMask uint64      // last and sticky positions; zero past the stride budget
	bitPat     [64]int16   // match bit position -> pattern index

	// Aho–Corasick engine (built only for sets too large for bitap).
	hotN int32           // states resident in the byte-major interleaved region
	hot  *[1 << 16]int32 // hot[int(c)<<8|int(s)] for s < 256 (padded to a full 256x256)
	cold []int32         // cold[(int(s)-256)<<8 | int(c)] for s >= 256

	hasOut  []uint64 // bit s set iff state s completes at least one pattern
	outOff  []int32  // per-state offset into outFlat (len = numStates+1)
	outFlat []int32  // flattened pattern indices, outFlat[outOff[s]:outOff[s+1]]

	rootSkip  [256]bool // true iff the byte's root transition stays at the root
	soloStart int16     // the single start byte when IndexByte can skip, else -1
}

// MatchState is a matcher position carried across Feed calls. The zero
// value, returned by Start, is the initial state. States are only
// meaningful to the searcher that produced them.
type MatchState uint64

// NewMultiSearcher builds a case-sensitive multi-pattern searcher. At
// least one pattern is required and none may be empty.
func NewMultiSearcher(patterns []string) (*MultiSearcher, error) {
	return newMultiSearcher(patterns, false)
}

// NewFoldedMultiSearcher builds an ASCII case-insensitive multi-pattern
// searcher: bytes 'A'-'Z' compare equal to 'a'-'z', all other bytes
// compare exactly.
func NewFoldedMultiSearcher(patterns []string) (*MultiSearcher, error) {
	return newMultiSearcher(patterns, true)
}

// What one searcher may be built from, whoever asks for it (serve, worker,
// pipeline): building the automaton allocates ≈ 7.5 KB per pattern byte,
// so the byte cap bounds one build at ≈ 120 MB.
const (
	MaxPatterns     = 10_000
	MaxPatternBytes = 16 << 10
)

// CheckPatternBudget refuses a pattern list over MaxPatterns or
// MaxPatternBytes with an errs.ErrInvalid error. Every searcher build runs
// it first; a daemon also runs it before admitting a request.
func CheckPatternBudget(patterns []string) error {
	if len(patterns) > MaxPatterns {
		return errs.Invalid("%d patterns, limit %d", len(patterns), MaxPatterns)
	}
	total := 0
	for _, p := range patterns {
		if total += len(p); total > MaxPatternBytes {
			return errs.Invalid("patterns exceed %d bytes in total", MaxPatternBytes)
		}
	}
	return nil
}

// validatePatterns enforces the searcher's input contract: at least one
// pattern, within the budget, none empty. Every refusal is ErrInvalid.
func validatePatterns(patterns []string) error {
	if len(patterns) == 0 {
		return errs.Invalid("textproc: multi-searcher needs at least one pattern")
	}
	if err := CheckPatternBudget(patterns); err != nil {
		return err
	}
	for pi, p := range patterns {
		if p == "" {
			return errs.Invalid("textproc: empty search pattern at index %d", pi)
		}
	}
	return nil
}

// buildAutomaton runs the trie + BFS/failure-link phases shared by the
// production searcher and the frozen reference: a dense goto table and
// per-state output sets, with fail chains already collapsed so matching
// never walks them. Node 0 is the root; a zero edge means "absent". The
// patterns must have passed validatePatterns.
func buildAutomaton(patterns []string, folded bool) (next [][256]int32, out [][]int32) {
	trie := [][256]int32{{}}
	out = [][]int32{nil}
	for pi, p := range patterns {
		cur := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			if folded {
				c = foldTable[c]
			}
			nxt := trie[cur][c]
			if nxt == 0 {
				trie = append(trie, [256]int32{})
				out = append(out, nil)
				nxt = int32(len(trie) - 1)
				trie[cur][c] = nxt
			}
			cur = nxt
		}
		out[cur] = append(out[cur], int32(pi))
	}

	// BFS phase: failure links collapse into a dense goto table, and each
	// state's output set absorbs its failure state's outputs.
	fail := make([]int32, len(trie))
	next = make([][256]int32, len(trie))
	queue := make([]int32, 0, len(trie))
	for c := 0; c < 256; c++ {
		v := trie[0][c]
		next[0][c] = v // absent edges stay at the root
		if v != 0 {
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		f := fail[u]
		out[u] = append(out[u], out[f]...)
		for c := 0; c < 256; c++ {
			if v := trie[u][c]; v != 0 {
				fail[v] = next[f][c]
				next[u][c] = v
				queue = append(queue, v)
			} else {
				next[u][c] = next[f][c]
			}
		}
	}
	return next, out
}

// bfsOrder returns the breadth-first visit order of the automaton's
// states starting at the root — the construction queue's discovery order,
// which puts shallow (frequently visited) states first.
func bfsOrder(next [][256]int32) []int32 {
	order := make([]int32, 0, len(next))
	order = append(order, 0)
	seen := make([]bool, len(next))
	seen[0] = true
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for c := 0; c < 256; c++ {
			// Only trie edges discover new states; collapsed fail edges
			// point at already-shallower states.
			if v := next[u][c]; v != 0 && !seen[v] {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}

func newMultiSearcher(patterns []string, folded bool) (*MultiSearcher, error) {
	if err := validatePatterns(patterns); err != nil {
		return nil, err
	}
	fold := foldFor(folded)
	m := &MultiSearcher{patterns: append([]string(nil), patterns...)}
	// Only the engine Feed runs is built: the automaton's trie and tables
	// are ~0.4 MB even for a handful of short patterns.
	if !m.buildBitap(&fold) {
		next, out := buildAutomaton(m.patterns, folded)
		m.buildAC(next, out, &fold)
	}
	return m, nil
}

// foldFor returns the byte map both engines index their tables through:
// entry c is the byte c matches as, fold[c] for a folded searcher and the
// identity for an exact one.
func foldFor(folded bool) [256]byte {
	fold := foldTable
	if !folded {
		for c := range fold {
			fold[c] = byte(c)
		}
	}
	return fold
}

// buildAC lays the automaton out for the hot loop: BFS renumbering,
// hot/cold table split, flattened outputs behind the bitmap, and the
// root-skip configuration. The automaton of a folded searcher is built
// over folded bytes; its table rows are indexed by the raw byte, so the
// entry for c is the transition on fold[c].
func (m *MultiSearcher) buildAC(next [][256]int32, out [][]int32, fold *[256]byte) {
	// Renumber breadth-first: near-root states get the low ids, so the hot
	// interleaved region naturally covers where text automata live.
	order := bfsOrder(next)
	n := len(next)
	newID := make([]int32, n)
	for ni, old := range order {
		newID[old] = int32(ni)
	}

	// The hot region is padded to a full 256x256 so the index is a
	// shift+or (no multiply, no per-automaton scaling); padding rows are
	// unreachable because every stored transition is a valid state id.
	hotN := n
	if hotN > 256 {
		hotN = 256
	}
	m.hotN = int32(hotN)
	m.hot = new([1 << 16]int32)
	if n > hotN {
		m.cold = make([]int32, (n-hotN)*256)
	}
	for newS := 0; newS < n; newS++ {
		row := &next[order[newS]]
		if newS < hotN {
			for c := 0; c < 256; c++ {
				m.hot[c<<8|newS] = newID[row[fold[c]]]
			}
		} else {
			base := (newS - hotN) << 8
			for c := 0; c < 256; c++ {
				m.cold[base|c] = newID[row[fold[c]]]
			}
		}
	}

	// Flatten the output sets in the new numbering and mark states that
	// complete patterns in the bitmap.
	m.hasOut = make([]uint64, (n+63)/64)
	m.outOff = make([]int32, n+1)
	for newS := 0; newS < n; newS++ {
		o := out[order[newS]]
		m.outOff[newS+1] = m.outOff[newS] + int32(len(o))
		if len(o) > 0 {
			m.hasOut[newS>>6] |= 1 << (uint(newS) & 63)
		}
	}
	m.outFlat = make([]int32, m.outOff[n])
	for newS := 0; newS < n; newS++ {
		copy(m.outFlat[m.outOff[newS]:], out[order[newS]])
	}

	// Root skip setup: mark the raw bytes whose root transition stays at
	// the root. When exactly one can leave it the skip loop is
	// bytes.IndexByte instead of a per-byte table test; a folded letter
	// start has two such bytes, so it never qualifies.
	m.soloStart = -1
	starts := 0
	for c := 0; c < 256; c++ {
		if m.hot[c<<8] == 0 { // root is state 0 in both numberings
			m.rootSkip[c] = true
		} else {
			m.soloStart = int16(c)
			starts++
		}
	}
	if starts != 1 {
		m.soloStart = -1
	}
}

// buildBitap enables the shift-and engine when every pattern position
// fits one 64-bit word, and reports whether it did. Bit off_i+j of the
// state means "the first j+1 bytes of pattern i end here".
//
// When total + 2 × patterns ≤ 64 (the stride budget), each pattern is
// followed by two sticky positions whose mask bits are set for every byte
// value: a completed match moves on through them, so one that completes at
// byte j of a three-byte stride is still visible at the stride's end, at
// last + (3 − j). strideMask holds all three positions and bitPat maps
// them to the pattern, so the stride loop tests once per three bytes and
// counts each match exactly once. A set past the budget packs its patterns
// contiguously and runs only the single-step loops.
//
// There are no guard bits in either layout: the bit leaving pattern i-1's
// last position shifts into pattern i's first, but initMask sets that
// position unconditionally anyway, so the leak is harmless.
func (m *MultiSearcher) buildBitap(fold *[256]byte) bool {
	total := 0
	for _, p := range m.patterns {
		total += len(p)
	}
	if total > 64 {
		return false
	}
	sticky := 0
	if total+2*len(m.patterns) <= 64 {
		sticky = 2
	}
	// byFold[f] has bit j set iff the pattern byte at position j folds to
	// f; byte c matches position j iff byFold[fold[c]] has it. The sticky
	// positions match every byte.
	var byFold [256]uint64
	var stickyBits uint64
	off := 0
	for pi, p := range m.patterns {
		m.initMask |= 1 << uint(off)
		for j := 0; j < len(p); j++ {
			byFold[fold[p[j]]] |= 1 << uint(off+j)
		}
		off += len(p)
		m.matchMask |= 1 << uint(off-1)
		for s := 0; s <= sticky; s++ {
			m.bitPat[off-1+s] = int16(pi)
		}
		if sticky > 0 {
			m.strideMask |= 7 << uint(off-1)
			stickyBits |= 3 << uint(off)
			off += sticky
		}
	}
	for c := range m.masks {
		m.masks[c] = byFold[fold[c]] | stickyBits
	}
	m.bitap = true
	return true
}

// NumPatterns returns how many patterns the searcher matches; counts
// slices passed to Feed must have at least this length.
func (m *MultiSearcher) NumPatterns() int { return len(m.patterns) }

// Patterns returns the patterns in registration order (the index order of
// every counts slice). The slice is owned by the searcher.
func (m *MultiSearcher) Patterns() []string { return m.patterns }

// Start returns the initial matcher state for a new stream.
func (m *MultiSearcher) Start() MatchState { return 0 }

// Feed advances the matcher over p, incrementing counts[i] once per
// occurrence of pattern i that ends within p (overlaps included), and
// returns the state to pass to the next Feed. Splitting a stream into
// blocks at any boundaries yields the same counts as one contiguous
// buffer.
func (m *MultiSearcher) Feed(st MatchState, p []byte, counts []int64) MatchState {
	if m.bitap {
		return MatchState(m.feedBitap(uint64(st), p, counts))
	}
	return MatchState(m.feedExact(int32(st), p, counts))
}

// FeedSum is Feed that also advances a member checksum over p: it returns
// Feed's state and fnv64.MemberChecksum(h, p). The bitap engine folds the
// checksum into its own byte loop (feedBitapSum); the Aho–Corasick engine
// sums and then walks, at the cost of the two passes.
func (m *MultiSearcher) FeedSum(st MatchState, h uint64, p []byte, counts []int64) (MatchState, uint64) {
	if m.bitap {
		d, h := m.feedBitapSum(uint64(st), h, p, counts)
		return MatchState(d), h
	}
	return MatchState(m.feedExact(int32(st), p, counts)), fnv64.MemberChecksum(h, p)
}

// feedBitap is the shift-and hot loop: under the stride layout it takes
// three bytes a step (strideHits) and counts the kept hits once per
// len(hits) strides, then steps singly over the tail of fewer than three
// bytes, where matchMask picks out the completed patterns, almost always
// zero.
func (m *MultiSearcher) feedBitap(d uint64, p []byte, counts []int64) uint64 {
	if m.strideMask != 0 {
		var hits [256]uint64
		for len(p) >= 3 {
			q := p[:min(len(p)/3, len(hits))*3]
			p = p[len(q):]
			var n int
			d, n = m.strideHits(d, q, &hits)
			m.countHits(hits[:n], counts)
		}
	}
	masks := &m.masks
	init, match := m.initMask, m.matchMask
	for _, c := range p {
		d = ((d << 1) | init) & masks[c]
		if mm := d & match; mm != 0 {
			for {
				counts[m.bitPat[bits.TrailingZeros64(mm)]]++
				mm &= mm - 1
				if mm == 0 {
					break
				}
			}
		}
	}
	return d
}

// strideHits advances d over q, a multiple of three bytes and at most
// 3 × len(hits), three bytes a step. With Bk = masks[ck], three single
// steps are exactly D = ((D<<3) & M) | J for M = (B1<<2)&(B2<<1)&B3 and J
// the three steps' result from D = 0; both depend only on the bytes, so
// the chain D rides is one shift-and-or per stride. Each stride's match
// bits are stored to hits and kept — n advances — only when they are not
// zero, so the loop has no data-dependent branch. It returns d and n. The
// loop is a function of its own, and spells the step out, so that none of
// its state spills to the stack: inlined into feedBitap, or with the step
// as an inlined helper, Go's register allocator spills n, B1 or init.
func (m *MultiSearcher) strideHits(d uint64, q []byte, hits *[256]uint64) (uint64, int) {
	masks := &m.masks
	init, stride := m.initMask, m.strideMask
	n := 0
	for i := 0; i < len(q)-2; i += 3 {
		b1, b2, b3 := masks[q[i]], masks[q[i+1]], masks[q[i+2]]
		j := ((((b1&init)<<1|init)&b2)<<1 | init) & b3
		d = (d<<3)&((b1<<2)&(b2<<1)&b3) | j
		// n < len(hits) here; the mask only spares a bounds check.
		hits[n&(len(hits)-1)] = d & stride
		if d&stride != 0 {
			n++
		}
	}
	return d, n
}

// feedBitapSum is feedBitap with the member checksum h folded in the same
// loops. FNV-64a's xor-multiply (≈ 4 cycles a byte) and the shift-and
// chain are two latency-bound chains, so one loop carries both at nearly
// the rate of the slower alone — provided nothing flushes them: a
// mispredicted match test discards the checksum's chain along with the
// matcher's. So neither loop has a data-dependent branch: the stride loop
// (strideHitsSum) takes three FNV steps per iteration, and FNV's is the
// chain that binds it; the single-step loop stores each byte's match bits
// to hits as the stride loop does. Feed's single-step loop keeps its
// branch rather than this store with the sum discarded: the store costs
// the matcher alone more than its mispredictions do.
func (m *MultiSearcher) feedBitapSum(d, h uint64, p []byte, counts []int64) (uint64, uint64) {
	var hits [256]uint64
	if m.strideMask != 0 {
		for len(p) >= 3 {
			q := p[:min(len(p)/3, len(hits))*3]
			p = p[len(q):]
			var n int
			d, h, n = m.strideHitsSum(d, h, q, &hits)
			m.countHits(hits[:n], counts)
		}
	}
	masks := &m.masks
	init, match := m.initMask, m.matchMask
	for len(p) > 0 {
		q := p[:min(len(p), len(hits))]
		p = p[len(q):]
		n := 0
		for _, c := range q {
			h = fnv64.MemberStep(h, c)
			d = ((d << 1) | init) & masks[c]
			// n < len(hits) here; the mask only spares a bounds check.
			hits[n&(len(hits)-1)] = d & match
			if d&match != 0 {
				n++
			}
		}
		m.countHits(hits[:n], counts)
	}
	return d, h
}

// strideHitsSum is strideHits with the member checksum h advanced over
// the same bytes.
func (m *MultiSearcher) strideHitsSum(d, h uint64, q []byte, hits *[256]uint64) (uint64, uint64, int) {
	masks := &m.masks
	init, stride := m.initMask, m.strideMask
	n := 0
	for i := 0; i < len(q)-2; i += 3 {
		c1, c2, c3 := q[i], q[i+1], q[i+2]
		h = fnv64.MemberStep(fnv64.MemberStep(fnv64.MemberStep(h, c1), c2), c3)
		b1, b2, b3 := masks[c1], masks[c2], masks[c3]
		j := ((((b1&init)<<1|init)&b2)<<1 | init) & b3
		d = (d<<3)&((b1<<2)&(b2<<1)&b3) | j
		hits[n&(len(hits)-1)] = d & stride
		if d&stride != 0 {
			n++
		}
	}
	return d, h, n
}

// countHits counts every pattern whose match bit is set in the kept hits.
func (m *MultiSearcher) countHits(hits []uint64, counts []int64) {
	for _, mm := range hits {
		for ; mm != 0; mm &= mm - 1 {
			counts[m.bitPat[bits.TrailingZeros64(mm)]]++
		}
	}
}

// feedExact is the automaton hot loop: per byte, one
// transition load (hot region interleaved byte-major) and one has-output
// bit test. When a single byte value can start a pattern, root-state runs
// collapse to one vectorized bytes.IndexByte call; with several start
// bytes the root's own table row is already off the load-to-use chain
// (its address depends only on the input byte), so no skip loop can beat
// simply walking it. Automata that fit the hot region with no solo byte —
// the common multi-pattern shape — take a branch-free tight loop instead
// of paying the solo/cold tests on every byte.
func (m *MultiSearcher) feedExact(s int32, p []byte, counts []int64) int32 {
	hot := m.hot
	hasOut := m.hasOut
	if m.cold == nil && m.soloStart < 0 {
		for _, c := range p {
			s = hot[int(c)<<8|int(s)]
			if hasOut[s>>6]&(1<<(uint(s)&63)) != 0 {
				for _, pi := range m.outFlat[m.outOff[s]:m.outOff[s+1]] {
					counts[pi]++
				}
			}
		}
		return s
	}
	cold := m.cold
	solo := m.soloStart
	i, n := 0, len(p)
	for i < n {
		if s == 0 && solo >= 0 {
			j := bytes.IndexByte(p[i:], byte(solo))
			if j < 0 {
				break
			}
			i += j
		}
		c := p[i]
		i++
		if s < 256 {
			s = hot[int(c)<<8|int(s)]
		} else {
			s = cold[(int(s)-256)<<8|int(c)]
		}
		if hasOut[s>>6]&(1<<(uint(s)&63)) != 0 {
			for _, pi := range m.outFlat[m.outOff[s]:m.outOff[s+1]] {
				counts[pi]++
			}
		}
	}
	return s
}
