package textproc

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/errs"
	"repro/internal/fnv64"
	"repro/internal/scan"
	"repro/internal/scan/kerneltest"
)

// fuzzSearcherSets covers both engines, both bitap loops and both folding
// modes: small sets the bitap engine takes three bytes a step (one of
// them all self-overlapping and 1-byte patterns), a bitap set past the
// stride budget (8 patterns, 50 bytes: 50 + 2 × 8 > 64) that steps singly,
// every set forced onto the reworked AC walk too, and folded variants. The
// reference walk is the oracle.
func fuzzSearcherSets() []struct {
	name     string
	patterns []string
	folded   bool
} {
	return []struct {
		name     string
		patterns []string
		folded   bool
	}{
		{"bitap", []string{"the", "fox", "ab", "ba"}, false},
		{"bitap-folded", []string{"The", "fox", "aB"}, true},
		{"bitap-overlaps", []string{"a", "aa", "aaa", "ab"}, false},
		{"bitap-overlaps-folded", []string{"A", "aA", "aaa", "aB", "t"}, true},
		{"bitap-single-step", []string{"the", "and", "president", "market", "business", "nation", "report", "community"}, false},
		{"ac", []string{"the", "theme", "he", "hem", "emit", "mit", "it", "t", "\xff\x00", "brown fox"}, false},
		{"ac-folded", []string{"The", "THEME", "He", "heM", "Emit", "miT", "It", "T", "brown Fox"}, true},
	}
}

// FuzzMultiSearcherBlockSplit pins block-split invariance for both
// searcher engines: feeding arbitrary bytes through Feed in blocks of
// any size yields exactly the counts of one contiguous feed, and both
// equal the frozen reference walk. FeedSum at the same split gives the
// same counts and carries hash/fnv's sum of the bytes.
func FuzzMultiSearcherBlockSplit(f *testing.F) {
	f.Add([]byte("the quick brown fox themes the theme"), byte(3))
	f.Add([]byte("THE THEME emits; aB ba ab"), byte(1))
	f.Add([]byte("\xff\x00\xff\x00the\xfft"), byte(2))
	f.Add([]byte(""), byte(7))
	f.Add(bytes.Repeat([]byte("thethemit"), 40), byte(5))
	f.Add([]byte("aaaabaAab the president's business: the market, the nation"), byte(4))
	f.Fuzz(func(t *testing.T, data []byte, bsRaw byte) {
		bs := 1 + int(bsRaw)%13
		oracle := fnv.New64a()
		oracle.Write(data)
		wantSum := oracle.Sum64()
		for _, set := range fuzzSearcherSets() {
			newFast := NewMultiSearcher
			newRef := NewReferenceMultiSearcher
			if set.folded {
				newFast = NewFoldedMultiSearcher
				newRef = NewFoldedReferenceMultiSearcher
			}
			m, err := newFast(set.patterns)
			if err != nil {
				t.Fatal(err)
			}
			// The AC walk is exercised even on small sets.
			forced, err := newACMultiSearcher(set.patterns, set.folded)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRef(set.patterns)
			if err != nil {
				t.Fatal(err)
			}

			want := make([]int64, ref.NumPatterns())
			ref.Feed(ref.Start(), data, want)

			for name, s := range map[string]*MultiSearcher{"fast": m, "forced-ac": forced} {
				whole := make([]int64, s.NumPatterns())
				s.Feed(s.Start(), data, whole)
				if !equalInt64s(whole, want) {
					t.Fatalf("%s/%s contiguous feed: got %v want %v", set.name, name, whole, want)
				}
				split := make([]int64, s.NumPatterns())
				st := s.Start()
				for i := 0; i < len(data); i += bs {
					end := i + bs
					if end > len(data) {
						end = len(data)
					}
					st = s.Feed(st, data[i:end], split)
				}
				if !equalInt64s(split, want) {
					t.Fatalf("%s/%s block size %d: got %v want %v", set.name, name, bs, split, want)
				}
				// FeedSum at the same split and in one piece: the same
				// counts, and the member checksum the loop carried is
				// hash/fnv's.
				for _, fbs := range []int{bs, len(data) + 1} {
					summed := make([]int64, s.NumPatterns())
					st, h := s.Start(), fnv64.MemberInit
					for i := 0; i < len(data); i += fbs {
						st, h = s.FeedSum(st, h, data[i:min(i+fbs, len(data))], summed)
					}
					if !equalInt64s(summed, want) {
						t.Fatalf("%s/%s FeedSum at block size %d: got %v want %v", set.name, name, fbs, summed, want)
					}
					if h != wantSum {
						t.Fatalf("%s/%s FeedSum at block size %d: sum %#x, hash/fnv %#x", set.name, name, fbs, h, wantSum)
					}
				}
			}
		}
	})
}

// FuzzMultiSearcherPatterns draws the pattern set from the input too: 1–8
// patterns of 1–12 bytes over a 3-letter alphabet, exact or folded, so the
// totals land on both sides of the stride budget (total + 2 × patterns ≤
// 64) and of the bitap limit (64 bytes). The text is drawn over the same
// letters, both cases and two bytes no pattern has. Every set must run the
// engine and loop its size says, and Feed and FeedSum at every block size
// 1–13 must count what the reference walk counts; FeedSum's carried sum
// must be hash/fnv's.
func FuzzMultiSearcherPatterns(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 0, 2, 0, 1}, []byte("aaabababcabbaaab"))
	f.Add([]byte{0x0f, 4, 0, 0, 0, 0, 0, 4, 1, 1, 1, 1, 1, 4, 2, 2, 2, 2, 2, 4, 0, 1, 2, 0, 1}, bytes.Repeat([]byte("aAbBcab\x00"), 9))
	f.Add([]byte{7, 5, 5, 5, 5, 5, 5, 5, 5, 0, 1, 2}, bytes.Repeat([]byte("aaaaaaaabcab"), 20)) // 8 × 6: 48 + 16 = 64, stride
	f.Add([]byte{7, 6, 6, 6, 6, 6, 6, 6, 6, 0, 1}, bytes.Repeat([]byte("aaaaaaaaaab"), 20))     // 8 × 7: single step
	f.Add([]byte{7, 8, 8, 8, 8, 8, 8, 8, 8, 2}, bytes.Repeat([]byte("aaaaaaaaaaaaaab"), 20))    // 8 × 9: Aho–Corasick
	f.Fuzz(func(t *testing.T, spec, text []byte) {
		next := func() int {
			if len(spec) == 0 {
				return 0
			}
			b := spec[0]
			spec = spec[1:]
			return int(b)
		}
		head := next()
		folded := head&8 != 0
		patterns := make([]string, 1+head%8)
		lens := make([]int, len(patterns))
		total := 0
		for i := range lens {
			lens[i] = 1 + next()%12
			total += lens[i]
		}
		for i, n := range lens {
			p := make([]byte, n)
			for j := range p {
				p[j] = "abc"[next()%3]
			}
			patterns[i] = string(p)
		}
		for i, c := range text {
			if bytes.IndexByte([]byte("abcABC"), c) < 0 {
				text[i] = "abcABC\x00\xff"[c%8]
			}
		}

		newFast, newRef := NewMultiSearcher, NewReferenceMultiSearcher
		if folded {
			newFast, newRef = NewFoldedMultiSearcher, NewFoldedReferenceMultiSearcher
		}
		m, err := newFast(patterns)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRef(patterns)
		if err != nil {
			t.Fatal(err)
		}
		if m.bitap != (total <= 64) || (m.strideMask != 0) != (total+2*len(patterns) <= 64) {
			t.Fatalf("%q (%d bytes): bitap=%v stride=%v", patterns, total, m.bitap, m.strideMask != 0)
		}
		want := make([]int64, ref.NumPatterns())
		ref.Feed(ref.Start(), text, want)
		oracle := fnv.New64a()
		oracle.Write(text)
		wantSum := oracle.Sum64()
		for bs := 1; bs <= 13; bs++ {
			fed := make([]int64, len(patterns))
			summed := make([]int64, len(patterns))
			st, sst, h := m.Start(), m.Start(), fnv64.MemberInit
			for i := 0; i < len(text); i += bs {
				block := text[i:min(i+bs, len(text))]
				st = m.Feed(st, block, fed)
				sst, h = m.FeedSum(sst, h, block, summed)
			}
			if !equalInt64s(fed, want) || !equalInt64s(summed, want) {
				t.Fatalf("%q folded=%v block size %d: Feed %v, FeedSum %v, want %v", patterns, folded, bs, fed, summed, want)
			}
			if h != wantSum {
				t.Fatalf("%q block size %d: FeedSum sum %#x, hash/fnv %#x", patterns, bs, h, wantSum)
			}
		}
	})
}

func equalInt64s(a, b []int64) bool {
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

// windowHazards are what the window loop must not trip over: every kind
// of whitespace and control byte, case, digits, apostrophes, sentence-end
// runs, UTF-8 of every length, and punctuation with a continuation byte
// right after it — one chunk to the tokenizer, so a window that ends on
// the punctuation must leave it to the byte loop.
var windowHazards = []string{
	",\x80", ".\xa0", "!\xbf\x80", "\x00\x80",
	"\n", "\t", "\r", "\x0b", "\x00", "London", "THE", "1984", "don't", "'''",
	"é", "日", "\U0001F600", "\x80", "...!?", ". ", "!\n\n?",
}

var windowFiller = []byte("the people of the city said that a good year is a long time to wait for it ")

// fill appends filler prose to seed until it is n bytes long.
func fill(seed []byte, n int) []byte {
	for len(seed) < n {
		seed = append(seed, windowFiller[len(seed)%len(windowFiller)])
	}
	return seed
}

// hazardAt is prose with one hazard at byte off and the windows the loop
// needs after it. The stream is pure ASCII up to the hazard, so fed whole
// its windows sit at multiples of windowBytes and off picks the hazard's
// place in one: first byte, lane boundary (7, 8), last byte (63).
func hazardAt(hazard string, off int) []byte {
	seed := append(fill(nil, off), hazard...)
	return fill(seed, len(seed)+2*windowBytes+lexKeyMax)
}

// windowSeed is a fuzz seed with every hazard, one per window at the given
// offset into it. (A hazard with a byte >= 0x80 sends the stream through
// the byte loop and the windows after it start wherever that stops;
// TestStreamAnalyzerWindowHazards places each hazard exactly.)
func windowSeed(off int) []byte {
	var seed []byte
	for w, h := range windowHazards {
		seed = append(fill(seed, w*windowBytes+off), h...)
	}
	return fill(seed, len(seed)+windowBytes+lexKeyMax)
}

// analyzerOracleDiff holds the analyzer to its oracles over data fed in
// blocks of each given size: statistics equal Analyze, lines equal the
// newline count, the emitted words equal Tokenize's non-punctuation
// tokens, and the kernel's lexicon count equals TagText's Unknown. It
// returns the first difference, or "".
func analyzerOracleDiff(tagger *Tagger, data []byte, blockSizes ...int) string {
	want := Analyze(data)
	wantLines := int64(bytes.Count(data, []byte("\n")))
	var wantWords bytes.Buffer
	for _, tok := range Tokenize(data) {
		if !tok.Punct {
			wantWords.WriteString(tok.Text)
			wantWords.WriteByte(0)
		}
	}
	_, tagged := tagger.TagText(data)
	wantFile := FileStats{Name: "fuzz", Stats: want, Lines: wantLines, Unknown: tagged.Unknown}
	for _, bs := range blockSizes {
		var words bytes.Buffer
		a := &StreamAnalyzer{onWord: func(w []byte) {
			words.Write(w)
			words.WriteByte(0)
		}}
		k := NewAnalyzerKernel(tagger)
		k.Begin(scan.Source{Name: "fuzz", Size: int64(len(data))})
		for i := 0; i < len(data); i += bs {
			a.Block(data[i:min(i+bs, len(data))])
			k.Block(data[i:min(i+bs, len(data))])
		}
		k.End()
		if st, lines := a.Finish(); st != want || lines != wantLines {
			return fmt.Sprintf("block size %d: callback analyzer has %+v and %d lines, Analyze %+v and %d", bs, st, lines, want, wantLines)
		}
		if words.String() != wantWords.String() {
			return fmt.Sprintf("block size %d: words %q, Tokenize %q", bs, words.String(), wantWords.String())
		}
		if got := k.Files()[0]; got != wantFile {
			return fmt.Sprintf("block size %d: lexicon kernel has %+v, want %+v", bs, got, wantFile)
		}
	}
	return ""
}

// TestStreamAnalyzerWindowHazards puts every hazard at every offset of the
// window loop's first two windows and the margin after them, fed whole and
// in blocks that end inside a window.
func TestStreamAnalyzerWindowHazards(t *testing.T) {
	tagger := NewTagger()
	for _, h := range windowHazards {
		for off := 0; off <= 2*windowBytes+lexKeyMax; off++ {
			data := hazardAt(h, off)
			if diff := analyzerOracleDiff(tagger, data, len(data), 67, 81, 150); diff != "" {
				t.Errorf("%q at offset %d: %s", h, off, diff)
			}
		}
	}
}

// FuzzStreamAnalyzerBlockSplit pins the analyzer to its oracles on
// arbitrary bytes at block sizes that straddle the window loop's 64-byte
// stride and its margin — every word-run, chunk, sentence and window
// hand-over must survive the boundary.
func FuzzStreamAnalyzerBlockSplit(f *testing.F) {
	f.Add([]byte("The quick brown fox. It jumps!\nhéllo wörld's end"), uint16(3))
	f.Add([]byte("a"), uint16(1))
	f.Add([]byte("\xc3\xa9\xc3\xa9 abc\xc3"), uint16(2))
	f.Add(bytes.Repeat([]byte("word "), 30), uint16(7))
	f.Add([]byte("...!?\n\n  \t"), uint16(4))
	for _, off := range []int{0, 7, 8, 63} {
		f.Add(windowSeed(off), uint16(66+off))
		for _, h := range windowHazards[:2] {
			f.Add(hazardAt(h, off), uint16(299))
			f.Add(hazardAt(h, windowBytes+off), uint16(299))
		}
	}
	f.Add(bytes.Repeat([]byte("Supercalifragilistic"), 20), uint16(150))
	// Dense with bytes >= 0x80: the window loop keeps coming back
	// empty-handed and the byte loop's stints double.
	f.Add(bytes.Repeat([]byte("the café of the naïve people said that 日本 is far. "), 60), uint16(299))
	tagger := NewTagger()
	f.Fuzz(func(t *testing.T, data []byte, bsRaw uint16) {
		if diff := analyzerOracleDiff(tagger, data, 63, 64, 65, 79, 80, 81, 1+int(bsRaw)%300, len(data)+1); diff != "" {
			t.Fatal(diff)
		}
	})
}

// FuzzKernelRestore feeds arbitrary bytes to the Restore of every
// production kernel whose state crosses the wire and the journal — the
// checksum, the analyzer without and with a lexicon, the matcher — as a
// remote worker's answer or a journal record would: it must not panic, a
// refusal must be ErrCorrupt or ErrInvalid, and a state it accepts must
// snapshot back to the same bytes. The seeds are each kernel's real state
// over the conformance samples, empty states, and kerneltest's garbage.
func FuzzKernelRestore(f *testing.F) {
	ms, err := NewMultiSearcher([]string{"the", "error", "Unknownzz"})
	if err != nil {
		f.Fatal(err)
	}
	kernels := []scan.Kernel{scan.NewChecksum(), NewStatsKernel(), NewAnalyzerKernel(NewTagger()), NewMatchKernel(ms)}
	for _, proto := range kernels {
		empty, err := scan.SnapshotKernel(proto.Fork())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(empty)
		k := proto.Fork()
		for i, c := range kerneltest.SampleContents() {
			k.Begin(scan.Source{Name: fmt.Sprintf("sample-%02d.txt", i), Size: int64(len(c))})
			k.Block(c)
			k.End()
		}
		full, err := scan.SnapshotKernel(k)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(full)
	}
	for _, g := range kerneltest.GarbageStates() {
		f.Add(g)
	}
	f.Fuzz(func(t *testing.T, state []byte) {
		for _, proto := range kernels {
			k := proto.Fork()
			err := scan.RestoreKernel(k, state)
			if err != nil {
				if !errors.Is(err, errs.ErrCorrupt) && !errors.Is(err, errs.ErrInvalid) {
					t.Fatalf("%T: Restore refused with %v, neither ErrCorrupt nor ErrInvalid", proto, err)
				}
				continue
			}
			again, err := scan.SnapshotKernel(k)
			if err != nil {
				t.Fatalf("%T: Snapshot after Restore: %v", proto, err)
			}
			if !bytes.Equal(again, state) {
				t.Fatalf("%T: Restore accepted %d bytes that snapshot back as %d different ones", proto, len(state), len(again))
			}
		}
	})
}

// FuzzKnownWord pins the frozen key set to the lexicon map on arbitrary
// bytes: NULs, non-ASCII, over-long words and all.
func FuzzKnownWord(f *testing.F) {
	for _, w := range []string{"the", "The", "london", "London", "international", "internationally", "\u212aNOW" /* Kelvin sign: ToLower gives "know" */, "the\x00", "", "don't", "é", "Él"} {
		f.Add([]byte(w))
	}
	tagger := NewTagger()
	f.Fuzz(func(t *testing.T, word []byte) {
		_, want := tagger.lex[lowerWord(string(word))]
		if got := tagger.KnownWord(word); got != want {
			t.Fatalf("KnownWord(%q) = %v, the map says %v", word, got, want)
		}
	})
}
