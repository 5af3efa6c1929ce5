package textproc

import (
	"fmt"
	"io"
	"regexp"
	"sync"
)

// Searcher is a streaming pattern matcher. The paper's grep usage scenario
// is "simple patterns consisting of English dictionary words", searched in
// a full-traversal worst case (a nonsense word that never matches); the
// literal engine is a Boyer-Moore-Horspool scan that, like GNU grep, skips
// most input bytes. A regexp mode covers the complex-pattern case the paper
// mentions but does not evaluate.
type Searcher struct {
	pattern []byte
	skip    [256]int
	re      *regexp.Regexp
	folded  bool
}

// NewSearcher compiles a literal, case-sensitive pattern.
func NewSearcher(pattern string) (*Searcher, error) {
	if pattern == "" {
		return nil, fmt.Errorf("textproc: empty search pattern")
	}
	s := &Searcher{pattern: []byte(pattern)}
	s.buildSkip()
	return s, nil
}

// NewFoldedSearcher compiles a literal ASCII case-insensitive pattern.
func NewFoldedSearcher(pattern string) (*Searcher, error) {
	if pattern == "" {
		return nil, fmt.Errorf("textproc: empty search pattern")
	}
	s := &Searcher{pattern: toLowerASCII([]byte(pattern)), folded: true}
	s.buildSkip()
	return s, nil
}

// NewRegexpSearcher compiles an RE2 pattern; matching falls back to the
// stdlib engine over buffered windows.
func NewRegexpSearcher(pattern string) (*Searcher, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("textproc: %w", err)
	}
	return &Searcher{re: re}, nil
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

func toLowerASCII(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = foldTable[c]
	}
	return out
}

// CountBytes returns the number of (possibly overlapping) matches in data.
func (s *Searcher) CountBytes(data []byte) int64 {
	if s.re != nil {
		return int64(len(s.re.FindAllIndex(data, -1)))
	}
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

// grepBufSize is the streaming window; a literal match never spans more
// than len(pattern)-1 bytes across reads, so that carry suffices.
const grepBufSize = 64 * 1024

// windowPool recycles streaming windows across CountReader calls: a grep
// over a million small files would otherwise allocate a fresh 64 kB
// window per file. The pooled size covers the regexp carry; rare oversize
// literal patterns fall back to a dedicated allocation.
var windowPool = sync.Pool{
	New: func() any {
		buf := make([]byte, grepBufSize+4096)
		return &buf
	},
}

// CountReader streams r and returns the number of matches, never holding
// more than one window in memory. For the regexp engine a match must fit in
// one window (64 KiB), matching GNU grep's line-oriented behaviour for sane
// inputs.
func (s *Searcher) CountReader(r io.Reader) (int64, error) {
	overlap := 0
	if s.re == nil {
		overlap = len(s.pattern) - 1
	} else {
		overlap = 4096 // generous regexp carry window
	}
	bp := windowPool.Get().(*[]byte)
	defer windowPool.Put(bp)
	var buf []byte
	if need := grepBufSize + overlap; need <= cap(*bp) {
		buf = (*bp)[:need]
	} else {
		buf = make([]byte, need)
	}
	carry := 0
	var total int64
	var prevWindowMatches int64
	for {
		n, err := r.Read(buf[carry:])
		if n > 0 {
			window := buf[:carry+n]
			matches := s.CountBytes(window)
			// Matches entirely inside the carried prefix were counted in
			// the previous iteration; subtract them.
			total += matches - prevWindowMatches
			// Prepare next carry: keep the last `overlap` bytes.
			keep := overlap
			if keep > len(window) {
				keep = len(window)
			}
			copy(buf, window[len(window)-keep:])
			carry = keep
			prevWindowMatches = s.CountBytes(buf[:carry])
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
