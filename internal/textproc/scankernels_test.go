package textproc

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lexicon"
	"repro/internal/scan"
	"repro/internal/textproc/tokentest"
)

// analyzerTexts exercise every tokenizer edge: sentence enders, trailing
// fragments, apostrophes, multi-byte word and punctuation runes, bare
// continuation bytes, and pathological whitespace.
var analyzerTexts = []string{
	"",
	"   \n\t\r  ",
	"Hello world. How are you? I'm fine! trailing fragment",
	"one.two.three...",
	"café déjà-vu — naïve. 北京 is a city. é",
	"words\nacross\nlines\nwith no sentence end",
	"\x80\x80 stray continuation \xC3 lone lead \xC3\xA9 ok",
	"!?.",
	strings.Repeat("a sentence with seven words in it. ", 40),
	"don't can't won't o'clock '''",
}

func TestStreamAnalyzerMatchesAnalyzeAtAnySplit(t *testing.T) {
	for ti, text := range analyzerTexts {
		data := []byte(text)
		want := TextStats(tokentest.Analyze(data))
		wantLines := int64(bytes.Count(data, []byte("\n")))
		for _, block := range []int{1, 2, 3, 5, 7, 64, len(data) + 1} {
			a := new(StreamAnalyzer)
			for off := 0; off < len(data); off += block {
				end := off + block
				if end > len(data) {
					end = len(data)
				}
				a.Block(data[off:end])
			}
			st, lines := a.Finish()
			if st != want {
				t.Errorf("text %d block %d: stats %+v, want %+v", ti, block, st, want)
			}
			if lines != wantLines {
				t.Errorf("text %d block %d: lines %d, want %d", ti, block, lines, wantLines)
			}
		}
	}
}

func TestStreamAnalyzerWordCallbackSeesEveryWordToken(t *testing.T) {
	for ti, text := range analyzerTexts {
		data := []byte(text)
		var want []string
		for _, tok := range tokentest.Tokenize(data) {
			if !tok.Punct {
				want = append(want, tok.Text)
			}
		}
		for _, block := range []int{1, 3, 64} {
			var got []string
			a := &StreamAnalyzer{onWord: func(w []byte) { got = append(got, string(w)) }}
			for off := 0; off < len(data); off += block {
				end := off + block
				if end > len(data) {
					end = len(data)
				}
				a.Block(data[off:end])
			}
			a.Finish()
			if len(got) != len(want) {
				t.Fatalf("text %d block %d: %d words, want %d (%q vs %q)",
					ti, block, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("text %d block %d word %d: %q, want %q", ti, block, i, got[i], want[i])
				}
			}
		}
	}
}

func TestStreamAnalyzerResetClearsState(t *testing.T) {
	a := new(StreamAnalyzer)
	a.Block([]byte("unfinished word and sen"))
	a.Reset()
	a.Block([]byte("two words."))
	st, _ := a.Finish()
	want := TextStats(tokentest.Analyze([]byte("two words.")))
	if st != want {
		t.Fatalf("after Reset: %+v, want %+v", st, want)
	}
}

func TestTaggerKnownWordMatchesLexiconMembership(t *testing.T) {
	tagger := NewTagger()
	words := []string{
		"the", "The", "THE", "and", "zzzgibberish", "Errors",
		"café", "O'Clock", "naïve", "12",
		strings.Repeat("Long", 40), // > 64 bytes with uppercase
	}
	for _, w := range words {
		if got, want := tagger.KnownWord([]byte(w)), tokentest.Known(w); got != want {
			t.Errorf("KnownWord(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestTaggerKnownWordDoesNotAllocate(t *testing.T) {
	tagger := NewTagger()
	word := []byte("Window") // forces the fold path
	allocs := testing.AllocsPerRun(100, func() {
		tagger.KnownWord(word)
		tagger.KnownWord([]byte("the")[:3])
	})
	if allocs > 0 {
		t.Errorf("KnownWord allocates %.1f per run, want 0", allocs)
	}
}

// kernelUnknown scans text as one file through a lexicon kernel in one
// block — text past windowBytes+lexKeyMax goes through the window
// loop's packed lookup — and returns the file's record.
func kernelUnknown(t *testing.T, tagger *Tagger, text []byte) FileStats {
	t.Helper()
	k := NewAnalyzerKernel(tagger)
	k.Begin(scan.Source{Name: "w", Size: int64(len(text))})
	k.Block(text)
	k.End()
	return k.Files()[0]
}

// TestLexiconSetMatchesMap is the set-vs-map differential: for every
// lexicon key in three casings and for words on every side of the packed
// key's 8- and 16-byte edges, Tagger.KnownWord and the window loop's
// lookup both answer exactly what the oracle's map lookup answers for the
// folded word.
//
// That includes the proper-noun quirk. The lexicon stores "London"
// verbatim, every lookup folds the query to "london", so the proper-noun
// keys are unreachable: "London" and "london" are both unknown words, in
// the oracle and here alike. The set must keep it that way — storing keys
// folded would change every Unknown count the repository has recorded.
// Whether the tagger should know its proper nouns is not a question for a
// change to how membership is computed.
func TestLexiconSetMatchesMap(t *testing.T) {
	tagger := NewTagger()
	var words []string
	for key := range tagger.lex {
		words = append(words, key, strings.ToUpper(key), strings.ToUpper(key[:1])+strings.ToLower(key[1:]))
	}
	for _, n := range []int{7, 8, 9, 15, 16, 17, 65} {
		words = append(words, strings.Repeat("q", n), strings.Repeat("the", n)[:n], "international"[:min(n, 13)]+strings.Repeat("s", max(n-13, 0)))
	}
	words = append(words, "the1", "1the", "42", "don't", "the'", "'the", "é", "Él", "ÉL", "thé")
	pad := strings.Repeat(" ", windowBytes+lexKeyMax)
	for _, w := range words {
		want := tokentest.Known(w)
		if got := tagger.KnownWord([]byte(w)); got != want {
			t.Errorf("KnownWord(%q) = %v, the oracle says %v", w, got, want)
		}
		// The same word at the window loop's first byte, across its lane
		// edge and against its last byte.
		for _, lead := range []int{0, 5, windowBytes - len(w)%windowBytes} {
			text := []byte(strings.Repeat(" ", lead) + w + pad)
			got := kernelUnknown(t, tagger, text)
			if wantUnknown, wantWords := tokentest.Unknown(text), tokentest.Analyze(text).Words; got.Unknown != wantUnknown || got.Stats.Words != wantWords {
				t.Errorf("kernel over %q at offset %d: %d unknown of %d words, the oracle %d of %d",
					w, lead, got.Unknown, got.Stats.Words, wantUnknown, wantWords)
			}
			if isWordRun(w) && (got.Unknown == 0) != want {
				t.Errorf("kernel over %q at offset %d: unknown %d, the oracle says known=%v", w, lead, got.Unknown, want)
			}
		}
	}
	for _, proper := range lexicon.ProperNouns {
		if _, stored := tagger.lex[proper]; !stored {
			t.Fatalf("lexicon no longer stores %q verbatim: revisit the proper-noun quirk", proper)
		}
		if tagger.KnownWord([]byte(proper)) || kernelUnknown(t, tagger, []byte(proper+pad)).Unknown != 1 {
			t.Errorf("proper noun %q became reachable: Unknown counts are no longer bit-identical", proper)
		}
	}
}

func isWordRun(w string) bool {
	for i := 0; i < len(w); i++ {
		if !isWordByte(w[i]) {
			return false
		}
	}
	return true
}

// TestAnalyzerKernelCarryIsBounded: a separator-free source (base64,
// minified data) is one word to the tokenizer. The lexicon kernel must not
// buffer it — past the longest key it is unknown whatever follows — so
// scanning 64 MiB of it in 128 KiB blocks leaves the heap where it was.
func TestAnalyzerKernelCarryIsBounded(t *testing.T) {
	block := bytes.Repeat([]byte("QUJD"), 128<<10/4)
	k := NewAnalyzerKernel(NewTagger())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k.Begin(scan.Source{Name: "blob", Size: 64 << 20})
	for fed := 0; fed < 64<<20; fed += len(block) {
		k.Block(block)
	}
	k.End()
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Errorf("scanning a 64 MiB single word allocated %d bytes, want < 1 MiB", grown)
	}
	want := FileStats{Name: "blob", Stats: TextStats{Tokens: 1, Words: 1, Sentences: 1, MeanSentence: 1, MaxSentence: 1}, Unknown: 1}
	if got := k.Files()[0]; got != want {
		t.Errorf("single-word source: %+v, want %+v", got, want)
	}
}

// TestAnalyzerKernelAllocations: the lexicon is shared and frozen, so a
// fork owns nothing but its counters, and a block costs no allocation
// whatever it holds.
func TestAnalyzerKernelAllocations(t *testing.T) {
	proto := NewAnalyzerKernel(NewTagger())
	text := bytes.Repeat([]byte("The quick brown fox said it's fine. Zzyzzx 42 flurmish!\n\tcafé — naïve? "), 1<<20/73+1)[:1<<20]
	k := proto.Fork().(*StatsKernel)
	k.Begin(scan.Source{Name: "mib", Size: int64(len(text))})
	if allocs := testing.AllocsPerRun(5, func() { k.Block(text) }); allocs != 0 {
		t.Errorf("a 1 MiB Block with a lexicon allocates %.0f times, want 0", allocs)
	}
	const forks = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < forks; i++ {
		proto.Fork()
	}
	runtime.ReadMemStats(&after)
	if perFork := (after.TotalAlloc - before.TotalAlloc) / forks; perFork >= 1<<10 {
		t.Errorf("Fork allocates %d bytes, want < 1 KiB", perFork)
	}
}
