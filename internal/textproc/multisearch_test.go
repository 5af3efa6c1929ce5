package textproc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/textproc/bmhtest"
)

// startBytes returns how many distinct bytes can start a pattern, which
// pins the skip-loop setup.
func startBytes(m *MultiSearcher) int {
	total := 0
	for c := 0; c < 256; c++ {
		if !m.rootSkip[c] {
			total++
		}
	}
	return total
}

func TestMultiSearcherMatchesSearcherPerPattern(t *testing.T) {
	patterns := []string{"ab", "abab", "ba", "b", "xyz", "aa"}
	texts := []string{
		"",
		"a",
		"ababab",
		"aaaa",
		"the ability of a crab to grab a kebab",
		strings.Repeat("ab", 500) + "xyz" + strings.Repeat("ba", 300),
	}
	ms, err := NewMultiSearcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range texts {
		got := ms.CountBytes([]byte(text))
		for i, p := range patterns {
			s, err := bmhtest.New(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := s.CountBytes([]byte(text)); got[i] != want {
				t.Errorf("text %.20q pattern %q: %d, want %d", text, p, got[i], want)
			}
		}
	}
}

func TestMultiSearcherOverlappingCounts(t *testing.T) {
	ms, err := NewMultiSearcher([]string{"aa"})
	if err != nil {
		t.Fatal(err)
	}
	// Overlaps all count: "aaaa" holds three "aa", same as bmhtest.
	if got := ms.CountBytes([]byte("aaaa"))[0]; got != 3 {
		t.Fatalf("overlapping count = %d, want 3", got)
	}
}

func TestMultiSearcherBlockSplitInvariance(t *testing.T) {
	patterns := []string{"needle", "edl", "ene", "needleneedle"}
	text := bytes.Repeat([]byte("a needleneedle in a haystackneedle "), 20)
	ms, err := NewMultiSearcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	want := ms.CountBytes(text)
	for _, block := range []int{1, 2, 3, 5, 7, 64} {
		counts := make([]int64, ms.NumPatterns())
		st := ms.Start()
		for off := 0; off < len(text); off += block {
			end := off + block
			if end > len(text) {
				end = len(text)
			}
			st = ms.Feed(st, text[off:end], counts)
		}
		for i := range want {
			if counts[i] != want[i] {
				t.Fatalf("block=%d pattern %q: %d, want %d (boundary straddle lost)",
					block, patterns[i], counts[i], want[i])
			}
		}
	}
}

func TestMultiSearcherRejectsBadPatterns(t *testing.T) {
	if _, err := NewMultiSearcher(nil); err == nil {
		t.Error("empty pattern list accepted")
	}
	if _, err := NewMultiSearcher([]string{"ok", ""}); err == nil {
		t.Error("empty pattern accepted")
	}
}

// TestMultiSearcherPatternBudget: both caps are inclusive, and a list one
// over either is refused as ErrInvalid by both constructors before any
// table is built.
func TestMultiSearcherPatternBudget(t *testing.T) {
	many := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = "a"
		}
		return out
	}
	for name, patterns := range map[string][]string{
		"count": many(MaxPatterns),
		"bytes": {strings.Repeat("a", MaxPatternBytes/2), strings.Repeat("b", MaxPatternBytes/2)},
	} {
		if err := CheckPatternBudget(patterns); err != nil {
			t.Errorf("%s at the cap: %v", name, err)
		}
	}
	for name, patterns := range map[string][]string{
		"count": many(MaxPatterns + 1),
		"bytes": {strings.Repeat("a", MaxPatternBytes/2), strings.Repeat("b", MaxPatternBytes/2+1)},
	} {
		for _, build := range []func([]string) (*MultiSearcher, error){NewMultiSearcher, NewFoldedMultiSearcher} {
			if _, err := build(patterns); !errors.Is(err, errs.ErrInvalid) {
				t.Errorf("%s one over the cap: err = %v, want ErrInvalid", name, err)
			}
		}
	}
}

func TestFoldedMultiSearcherFoldsASCIIOnly(t *testing.T) {
	ms, err := NewFoldedMultiSearcher([]string{"AbC"})
	if err != nil {
		t.Fatal(err)
	}
	if got := ms.CountBytes([]byte("abc ABC aBc abd"))[0]; got != 3 {
		t.Fatalf("folded count = %d, want 3", got)
	}
}

// randTexts builds a deterministic mix of pattern-dense and pattern-free
// byte strings (including non-ASCII bytes) for differential runs.
func randTexts(patterns []string) [][]byte {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var texts [][]byte
	for n := 0; n < 24; n++ {
		size := int(next() % 3000)
		buf := make([]byte, 0, size+16)
		for len(buf) < size {
			switch next() % 4 {
			case 0: // embed a pattern, sometimes case-twisted
				p := patterns[next()%uint64(len(patterns))]
				for i := 0; i < len(p); i++ {
					c := p[i]
					if next()%3 == 0 && c >= 'a' && c <= 'z' {
						c -= 'a' - 'A'
					}
					buf = append(buf, c)
				}
			case 1: // plain ASCII filler
				buf = append(buf, byte('a'+next()%26))
			case 2: // spaces and punctuation
				buf = append(buf, " .,;\n\t!?"[next()%8])
			default: // arbitrary bytes incl. >= 0x80
				buf = append(buf, byte(next()))
			}
		}
		texts = append(texts, buf)
	}
	texts = append(texts, nil, []byte("x"), bytes.Repeat([]byte{0xff, 0x00}, 512))
	return texts
}

// TestMultiSearcherMatchesReference differentially pins the reworked hot
// loop (bitmap, flat outputs, hot/cold interleave, root skip) against the
// frozen pre-rework walk, exact and folded, contiguous and at hostile
// block splits.
func TestMultiSearcherMatchesReference(t *testing.T) {
	patternSets := [][]string{
		{"the"},                               // single pattern, single start byte
		{"the", "and", "president", "market"}, // bench-style words
		{"ab", "abab", "ba", "b", "aa"},       // dense overlaps
		{"\xff\xfe", "\x00"},                  // non-ASCII start bytes
		{"a", "A"},                            // fold-colliding pair
	}
	for _, patterns := range patternSets {
		for _, folded := range []bool{false, true} {
			ref, err := newReferenceMultiSearcher(patterns, folded)
			if err != nil {
				t.Fatal(err)
			}
			// Both engines are pinned: the bitap searcher as constructed
			// (all these sets are eligible), and the automaton engine built
			// for the same set by newACMultiSearcher.
			for _, forceAC := range []bool{false, true} {
				newFast := newMultiSearcher
				if forceAC {
					newFast = newACMultiSearcher
				}
				fast, err := newFast(patterns, folded)
				if err != nil {
					t.Fatal(err)
				}
				if !forceAC && !fast.bitap {
					t.Fatalf("patterns %q should be bitap-eligible", patterns)
				}
				for ti, text := range randTexts(patterns) {
					want := ref.CountBytes(text)
					if got := fast.CountBytes(text); !equalCounts(got, want) {
						t.Fatalf("patterns %q folded=%v forceAC=%v text #%d: fast %v, want %v",
							patterns, folded, forceAC, ti, got, want)
					}
					for _, block := range []int{1, 3, 7, 64} {
						counts := make([]int64, fast.NumPatterns())
						st := fast.Start()
						for off := 0; off < len(text); off += block {
							end := off + block
							if end > len(text) {
								end = len(text)
							}
							st = fast.Feed(st, text[off:end], counts)
						}
						if !equalCounts(counts, want) {
							t.Fatalf("patterns %q folded=%v forceAC=%v text #%d block=%d: fast %v, want %v",
								patterns, folded, forceAC, ti, block, counts, want)
						}
					}
				}
			}
		}
	}
}

func equalCounts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMultiSearcherSkipLoopSetup pins the Aho–Corasick root-skip
// configuration: a single fold-invariant start byte enables IndexByte, a
// letter start byte under folding must not (uppercase inputs fold onto
// it), and the start set matches the distinct first bytes.
func TestMultiSearcherSkipLoopSetup(t *testing.T) {
	ms, _ := newACMultiSearcher([]string{"needle", "nose"}, false)
	if ms.soloStart != int16('n') || startBytes(ms) != 1 {
		t.Fatalf("exact single start byte: soloStart=%d startBytes=%d, want 'n'/1",
			ms.soloStart, startBytes(ms))
	}
	ms, _ = newACMultiSearcher([]string{"needle"}, true)
	if ms.soloStart != -1 {
		t.Fatalf("folded letter start byte must not use IndexByte (misses 'N'), got soloStart=%d", ms.soloStart)
	}
	if got := ms.CountBytes([]byte("Needle needle NEEDLE")); got[0] != 3 {
		t.Fatalf("folded skip loop count = %d, want 3", got[0])
	}
	ms, _ = newACMultiSearcher([]string{"0ops"}, true)
	if ms.soloStart != int16('0') {
		t.Fatalf("folded non-letter start byte should use IndexByte, got soloStart=%d", ms.soloStart)
	}
	ms, _ = newACMultiSearcher([]string{"alpha", "beta", "gamma"}, false)
	if ms.soloStart != -1 || startBytes(ms) != 3 {
		t.Fatalf("three start bytes: soloStart=%d startBytes=%d, want -1/3",
			ms.soloStart, startBytes(ms))
	}
}

// TestMultiSearcherHotColdBoundary forces an automaton bigger than the
// hot region so the cold state-major table is exercised, and checks the
// deep walk still matches the reference.
func TestMultiSearcherHotColdBoundary(t *testing.T) {
	// ~40 patterns x ~12 bytes ≈ 480 states: well past hotN=256.
	var patterns []string
	for i := 0; i < 40; i++ {
		patterns = append(patterns, strings.Repeat(string(rune('a'+i%26)), 3)+"suffixtail"+string(rune('a'+i%26)))
	}
	fast, err := NewMultiSearcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if states := len(fast.outOff) - 1; states <= int(fast.hotN) {
		t.Fatalf("automaton too small to exercise cold table: %d states, hotN=%d",
			states, fast.hotN)
	}
	ref, err := NewReferenceMultiSearcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	text := []byte(strings.Join(patterns, " filler ") + " aaasuffixtaila bbbsuffixtail")
	if got, want := fast.CountBytes(text), ref.CountBytes(text); !equalCounts(got, want) {
		t.Fatalf("deep automaton: fast %v, want %v", got, want)
	}
}

// TestFoldedAutomatonIndexesByRawByte: a folded pattern set too long for
// bitap walks the Aho–Corasick tables, which are indexed by the raw input
// byte — so every byte value, letters of either case included, must take
// the transition its folded form would, and a stream split anywhere must
// count what the single-pattern folded searcher counts.
func TestFoldedAutomatonIndexesByRawByte(t *testing.T) {
	patterns := []string{"The Quick", "QUICK brown", "fox", "x", "Lazy-Dog_42", "été", "jumps over the LAZY", "0ops", "Brown Fox Jumps"}
	ms, err := NewFoldedMultiSearcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if ms.bitap {
		t.Fatal("pattern set fits bitap; the automaton is not under test")
	}
	oracles := make([]*bmhtest.Searcher, len(patterns))
	for i, p := range patterns {
		if oracles[i], err = bmhtest.NewFolded(p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, got []int64, text []byte) {
		t.Helper()
		for i, s := range oracles {
			if want := s.CountBytes(text); got[i] != want {
				t.Fatalf("%s: pattern %q counted %d, folded searcher %d", what, patterns[i], got[i], want)
			}
		}
	}
	for c := 0; c < 256; c++ {
		text := []byte{byte(c)}
		check(fmt.Sprintf("byte %#02x", c), ms.CountBytes(text), text)
	}
	text := []byte("tHE qUICK BROWN Fox JUMPS OVER the lazy-dog_42; ÉTÉ été 0OPS xX the quick brown fOX jumps Over The Lazy")
	check("whole text", ms.CountBytes(text), text)
	for cut := 0; cut <= len(text); cut++ {
		counts := make([]int64, len(patterns))
		st := ms.Feed(ms.Start(), text[:cut], counts)
		ms.Feed(st, text[cut:], counts)
		check(fmt.Sprintf("split at %d", cut), counts, text)
	}
}

// TestMultiSearcherBuildsOnlyItsEngine: a set of ≤ 64 pattern bytes gets
// the bitap engine and none of the Aho–Corasick tables, a larger set gets
// the tables, and building a searcher for the repository benchmark's
// eight-pattern grep set costs a few KiB, not the automaton's ~0.4 MB.
func TestMultiSearcherBuildsOnlyItsEngine(t *testing.T) {
	eight := []string{"the", "and", "president", "market", "city", "nation", "report", "error"}
	for _, folded := range []bool{false, true} {
		small, err := newMultiSearcher(eight, folded)
		if err != nil {
			t.Fatal(err)
		}
		if !small.bitap || small.hot != nil || small.cold != nil || small.hasOut != nil {
			t.Errorf("folded=%v: bitap-eligible set built Aho–Corasick tables (bitap=%v hot=%v)", folded, small.bitap, small.hot != nil)
		}
		large, err := newMultiSearcher(append(eight, "said the market", "city nation error"), folded)
		if err != nil {
			t.Fatal(err)
		}
		if large.bitap || large.hot == nil {
			t.Errorf("folded=%v: set over 64 bytes: bitap=%v hot built=%v, want the automaton", folded, large.bitap, large.hot != nil)
		}
	}

	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := NewMultiSearcher(eight); err != nil {
			t.Fatal(err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewMultiSearcher(eight); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / runs
	if perBuild >= 16<<10 {
		t.Errorf("NewMultiSearcher(8 patterns) allocates %d bytes in %.0f allocations, want < 16 KiB", perBuild, allocs)
	}
	t.Logf("NewMultiSearcher(8 patterns): %d bytes in %.0f allocations", perBuild, allocs)
}

// TestBitapStrideBudget pins which loop a bitap set runs, by size alone:
// three bytes a step while the pattern bytes plus two sticky positions per
// pattern fit the word (total + 2 × patterns ≤ 64), one byte a step past
// that, and bitap, not Aho–Corasick, up to 64 pattern bytes. Each case,
// exact and folded, counts what the reference walk counts on the kernel
// benchmarks' text, through Feed and FeedSum.
func TestBitapStrideBudget(t *testing.T) {
	text := corpus.NewGenerator(corpus.NewsStyle(), 6).Text(1 << 20)
	atBudget := []string{"the", "and", "president", "market", "community", "nation", "report", "people"}
	pastBudget := append([]string(nil), atBudget...)
	pastBudget[len(pastBudget)-1] += "s"
	for _, c := range []struct {
		name     string
		patterns []string
		stride   bool
		budget   int // total + 2 × patterns
	}{
		{"production", []string{"the", "and", "president", "market", "city", "nation", "report", "error"}, true, 58},
		{"at-budget", atBudget, true, 64},
		{"one-byte-past", pastBudget, false, 65},
		{"one-64-byte-pattern", []string{string(text[4096 : 4096+64])}, false, 66},
	} {
		total := len(strings.Join(c.patterns, ""))
		if got := total + 2*len(c.patterns); got != c.budget {
			t.Fatalf("%s: total + 2 × patterns = %d, want %d", c.name, got, c.budget)
		}
		for _, folded := range []bool{false, true} {
			m, err := newMultiSearcher(c.patterns, folded)
			if err != nil {
				t.Fatal(err)
			}
			if !m.bitap || m.hot != nil || (m.strideMask != 0) != c.stride {
				t.Fatalf("%s folded=%v: bitap=%v AC tables=%v stride=%v, want bitap, no tables, stride=%v",
					c.name, folded, m.bitap, m.hot != nil, m.strideMask != 0, c.stride)
			}
			ref, err := newReferenceMultiSearcher(c.patterns, folded)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.CountBytes(text)
			if want[0] == 0 {
				t.Fatalf("%s: %q never occurs in the text", c.name, c.patterns[0])
			}
			if got := m.CountBytes(text); !equalCounts(got, want) {
				t.Errorf("%s folded=%v: Feed %v, want %v", c.name, folded, got, want)
			}
			summed := make([]int64, len(c.patterns))
			m.FeedSum(m.Start(), 0, text, summed)
			if !equalCounts(summed, want) {
				t.Errorf("%s folded=%v: FeedSum %v, want %v", c.name, folded, summed, want)
			}
		}
	}
}
