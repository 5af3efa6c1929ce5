// Package bmhtest is the single-pattern oracle the multi-pattern matcher
// is held to: a Boyer–Moore–Horspool literal search that, like GNU grep,
// skips most input bytes, with an ASCII case-folded variant. It counts
// every occurrence, overlaps included. textproc's, scan's and core's tests
// compare MultiSearcher counts per pattern against it; it imports nothing
// from this module, so textproc's own tests can use it without a cycle.
package bmhtest

import "fmt"

// Searcher is a compiled literal pattern.
type Searcher struct {
	pattern []byte
	skip    [256]int
	folded  bool
}

// New compiles a literal, case-sensitive pattern.
func New(pattern string) (*Searcher, error) {
	if pattern == "" {
		return nil, fmt.Errorf("bmhtest: empty search pattern")
	}
	s := &Searcher{pattern: []byte(pattern)}
	s.buildSkip()
	return s, nil
}

// NewFolded compiles a literal ASCII case-insensitive pattern.
func NewFolded(pattern string) (*Searcher, error) {
	if pattern == "" {
		return nil, fmt.Errorf("bmhtest: empty search pattern")
	}
	s := &Searcher{pattern: toLowerASCII([]byte(pattern)), folded: true}
	s.buildSkip()
	return s, nil
}

func (s *Searcher) buildSkip() {
	m := len(s.pattern)
	for i := range s.skip {
		s.skip[i] = m
	}
	for i := 0; i < m-1; i++ {
		s.skip[s.pattern[i]] = m - 1 - i
	}
}

// toLowerASCII lowercases ASCII letters and leaves every other byte,
// those >= 0x80 included, as it is: the matcher's fold rule.
func toLowerASCII(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

// CountBytes returns the number of (possibly overlapping) matches in data.
func (s *Searcher) CountBytes(data []byte) int64 {
	hay := data
	if s.folded {
		hay = toLowerASCII(data)
	}
	return s.countBMH(hay)
}

// countBMH runs the Boyer-Moore-Horspool scan, counting overlapping
// matches.
func (s *Searcher) countBMH(hay []byte) int64 {
	m := len(s.pattern)
	n := len(hay)
	if m == 0 || n < m {
		return 0
	}
	var count int64
	i := 0
	last := s.pattern[m-1]
	for i <= n-m {
		c := hay[i+m-1]
		if c == last && matchAt(hay[i:], s.pattern) {
			count++
			i++ // allow overlapping matches, like repeated grep -o semantics
			continue
		}
		i += s.skip[c]
	}
	return count
}

func matchAt(hay, pat []byte) bool {
	for i := len(pat) - 2; i >= 0; i-- {
		if hay[i] != pat[i] {
			return false
		}
	}
	return true
}
