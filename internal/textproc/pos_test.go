package textproc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lexicon"
	"repro/internal/scan"
	"repro/internal/textproc/tokentest"
	"repro/internal/vfs"
)

func TestAnalyzerKernelCounts(t *testing.T) {
	text := []byte("the man runs. she quilness sees the dog.")
	got := kernelUnknown(t, NewTagger(), text)
	// runs, quilness, sees and dog are not in the lexicon.
	want := FileStats{Name: "w", Stats: TextStats{Tokens: 10, Words: 8, Sentences: 2, MeanSentence: 4, MaxSentence: 5}, Unknown: 4}
	if got != want {
		t.Errorf("kernel record %+v, want %+v", got, want)
	}
	if diff := analyzerOracleDiff(NewTagger(), text, 1, 7, len(text)+1); diff != "" {
		t.Error(diff)
	}
}

func TestAnalyzerKernelEmpty(t *testing.T) {
	if got := kernelUnknown(t, NewTagger(), nil); got != (FileStats{Name: "w"}) {
		t.Errorf("empty text: %+v", got)
	}
}

// tagFiles runs each file's content through one analyzer kernel that
// shares one Tagger (the paper's wrapper pattern: one model instance for
// every file) under the scan engine, and returns the merged totals.
func tagFiles(tg *Tagger, files []vfs.File) (FileStats, error) {
	k := NewAnalyzerKernel(tg)
	if err := scan.Run(context.Background(), files, scan.Options{Workers: 2}, k); err != nil {
		return FileStats{}, err
	}
	total := FileStats{Stats: k.Total(), Lines: k.Lines()}
	for _, f := range k.Files() {
		total.Unknown += f.Unknown
	}
	return total, nil
}

func TestTagFilesMergesResults(t *testing.T) {
	tg := NewTagger()
	files := []vfs.File{
		vfs.BytesFile("a", []byte("the cat sat.")),
		vfs.BytesFile("b", []byte("a dog ran. it barked.")),
	}
	res, err := tagFiles(tg, files)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Sentences != 3 {
		t.Errorf("sentences = %d, want 3", res.Stats.Sentences)
	}
	if res.Stats.Words != 3+3+2 {
		t.Errorf("words = %d, want 8", res.Stats.Words)
	}
	wantUnknown := tokentest.Unknown([]byte("the cat sat.")) + tokentest.Unknown([]byte("a dog ran. it barked."))
	if res.Unknown != wantUnknown {
		t.Errorf("unknown = %d, the oracle counts %d", res.Unknown, wantUnknown)
	}
}

func TestTagFilesMetadataOnlyFails(t *testing.T) {
	tg := NewTagger()
	if _, err := tagFiles(tg, []vfs.File{vfs.NewFile("m", 5)}); err == nil {
		t.Error("expected error for metadata-only file")
	}
}

// Reshaping invariant for POS: analysing the concatenation of files
// yields the same sentence, word and out-of-vocabulary counts as
// analysing them separately, provided each file ends with sentence-final
// punctuation (the corpus generator guarantees whole sentences).
func TestPOSInvariantUnderConcat(t *testing.T) {
	g := corpus.NewGenerator(corpus.NewsStyle(), 99)
	var members []vfs.File
	for i := 0; i < 10; i++ {
		// Whole sentences only: render until ≥200 bytes then close with '.'.
		var data []byte
		for len(data) < 200 {
			for _, w := range g.Sentence() {
				if w == "," || w == "." {
					data = append(data, w...)
					continue
				}
				if len(data) > 0 {
					data = append(data, ' ')
				}
				data = append(data, w...)
			}
		}
		members = append(members, vfs.BytesFile(fmt.Sprintf("s%02d", i), data))
	}
	tg := NewTagger()
	separate, err := tagFiles(tg, members)
	if err != nil {
		t.Fatal(err)
	}
	merged := vfs.Concat("unit", members)
	combined, err := tagFiles(tg, []vfs.File{merged})
	if err != nil {
		t.Fatal(err)
	}
	if separate.Stats.Sentences != combined.Stats.Sentences {
		t.Errorf("sentence counts differ under reshaping: %d vs %d", separate.Stats.Sentences, combined.Stats.Sentences)
	}
	if separate.Stats.Words != combined.Stats.Words {
		t.Errorf("word counts differ under reshaping: %d vs %d", separate.Stats.Words, combined.Stats.Words)
	}
	if separate.Unknown != combined.Unknown {
		t.Errorf("out-of-vocabulary counts differ under reshaping: %d vs %d", separate.Unknown, combined.Unknown)
	}
}

// The lexicon must cover the synthetic corpus: on generated text the
// out-of-vocabulary rate should stay near the style's RareWordProb.
func TestTaggerCoversGeneratedText(t *testing.T) {
	g := corpus.NewGenerator(corpus.NewsStyle(), 4)
	res := kernelUnknown(t, NewTagger(), g.Text(20000))
	if res.Stats.Words == 0 {
		t.Fatal("no words counted")
	}
	oovRate := float64(res.Unknown) / float64(res.Stats.Words)
	if oovRate > 0.10 {
		t.Errorf("OOV rate = %.3f, want ≤ 0.10 (style rare prob 0.03)", oovRate)
	}
}

// Complex style must measure as more tagging work per word (longer
// sentences, more OOV) — the root cause of the paper's Dubliners vs Agnes
// Grey 2x runtime difference.
func TestComplexityAffectsTaggerWork(t *testing.T) {
	tg := NewTagger()
	measure := func(style corpus.Style) (meanSentence, oov float64) {
		res := kernelUnknown(t, tg, corpus.NewGenerator(style, 12).Text(30000))
		return res.Stats.MeanSentence, float64(res.Unknown) / float64(res.Stats.Words)
	}
	plainLen, plainOOV := measure(corpus.PlainStyle())
	complexLen, complexOOV := measure(corpus.ComplexStyle())
	if complexLen < 1.5*plainLen {
		t.Errorf("complex mean sentence %.1f not ≥1.5x plain %.1f", complexLen, plainLen)
	}
	if complexOOV <= plainOOV {
		t.Errorf("complex OOV %.3f not above plain %.3f", complexOOV, plainOOV)
	}
}

func TestTaggerLexiconLoaded(t *testing.T) {
	if n := len(lexicon.Entries()); n < 300 {
		t.Errorf("lexicon size = %d, want ≥ 300", n)
	}
	tg := NewTagger()
	if !tg.KnownWord([]byte("the")) {
		t.Error("'the' is not known")
	}
	if !tg.KnownWord([]byte("The")) {
		t.Error("case-folded lookup failed")
	}
	if tg.KnownWord([]byte("zzzzgarbage")) {
		t.Error("nonsense word reported as known")
	}
}

// Run with -race: a shared Tagger must be safe for concurrent use — the
// scan engine's forks all test membership against one instance.
func TestTaggerConcurrentUse(t *testing.T) {
	tg := NewTagger()
	text := corpus.NewGenerator(corpus.NewsStyle(), 100).Text(20000)
	want := kernelUnknown(t, tg, text)
	if oracle := tokentest.Unknown(text); want.Unknown != oracle {
		t.Fatalf("kernel counts %d unknown, the oracle %d", want.Unknown, oracle)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res := kernelUnknown(t, tg, text); res != want {
				t.Errorf("concurrent kernel: %+v, want %+v", res, want)
			}
			unknown := 0
			for _, tok := range tokentest.Tokenize(text) {
				if !tok.Punct && !tg.KnownWord([]byte(tok.Text)) {
					unknown++
				}
			}
			if unknown != want.Unknown {
				t.Errorf("concurrent KnownWord: %d unknown, want %d", unknown, want.Unknown)
			}
		}()
	}
	wg.Wait()
}
