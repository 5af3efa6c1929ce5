package textproc

// ReferenceMultiSearcher is the pre-rework multi-pattern matcher kept as a
// frozen differential oracle: the same Aho–Corasick automaton as
// MultiSearcher (they share buildAutomaton), but walked through the
// original [][256]int32 goto table with per-state []int32 output slices
// and no skip loop, bitmap, or interleave. The differential and block-split
// fuzz tests pin both production engines against it; living in a _test.go
// file is what keeps the production path from calling it.
type ReferenceMultiSearcher struct {
	patterns []string
	folded   bool
	next     [][256]int32
	out      [][]int32
}

// NewReferenceMultiSearcher builds the frozen case-sensitive reference.
func NewReferenceMultiSearcher(patterns []string) (*ReferenceMultiSearcher, error) {
	return newReferenceMultiSearcher(patterns, false)
}

// NewFoldedReferenceMultiSearcher builds the frozen ASCII
// case-insensitive reference.
func NewFoldedReferenceMultiSearcher(patterns []string) (*ReferenceMultiSearcher, error) {
	return newReferenceMultiSearcher(patterns, true)
}

func newReferenceMultiSearcher(patterns []string, folded bool) (*ReferenceMultiSearcher, error) {
	if err := validatePatterns(patterns); err != nil {
		return nil, err
	}
	next, out := buildAutomaton(patterns, folded)
	return &ReferenceMultiSearcher{
		patterns: append([]string(nil), patterns...),
		folded:   folded,
		next:     next,
		out:      out,
	}, nil
}

// NumPatterns returns how many patterns the searcher matches.
func (m *ReferenceMultiSearcher) NumPatterns() int { return len(m.patterns) }

// Start returns the initial automaton state for a new stream.
func (m *ReferenceMultiSearcher) Start() MatchState { return 0 }

// Feed is the original per-byte walk: one goto-table row index, then a
// slice-header load and length check for the output set on every byte.
func (m *ReferenceMultiSearcher) Feed(st MatchState, p []byte, counts []int64) MatchState {
	s := int32(st)
	if m.folded {
		for i := 0; i < len(p); i++ {
			s = m.next[s][foldTable[p[i]]]
			for _, pi := range m.out[s] {
				counts[pi]++
			}
		}
	} else {
		for i := 0; i < len(p); i++ {
			s = m.next[s][p[i]]
			for _, pi := range m.out[s] {
				counts[pi]++
			}
		}
	}
	return MatchState(s)
}

// CountBytes counts every occurrence of every pattern in data.
func (m *ReferenceMultiSearcher) CountBytes(data []byte) []int64 {
	counts := make([]int64, len(m.patterns))
	m.Feed(m.Start(), data, counts)
	return counts
}

// CountBytes counts every occurrence of every pattern in data, one count
// per pattern in registration order.
func (m *MultiSearcher) CountBytes(data []byte) []int64 {
	counts := make([]int64, len(m.patterns))
	m.Feed(m.Start(), data, counts)
	return counts
}

// newACMultiSearcher builds a production searcher that runs the
// Aho–Corasick engine whatever the set's size: construction builds only
// bitap for a set of ≤ 64 pattern bytes, so the automaton is laid out here
// and the dispatch flag cleared. The skip-loop setup and the differential
// and fuzz tests use it to pin the automaton walk on small sets too.
func newACMultiSearcher(patterns []string, folded bool) (*MultiSearcher, error) {
	m, err := newMultiSearcher(patterns, folded)
	if err != nil {
		return nil, err
	}
	if m.hot == nil {
		fold := foldFor(folded)
		next, out := buildAutomaton(m.patterns, folded)
		m.buildAC(next, out, &fold)
	}
	m.bitap = false
	return m, nil
}
