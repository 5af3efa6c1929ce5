package textproc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/lexicon"
	"repro/internal/vfs"
)

// TagSentence tags one sentence on its own, through the same greedy bigram
// decoder TagText runs over a whole document: the per-sentence oracle the
// tagger tests hold the decoder to.
func (t *Tagger) TagSentence(sentence []Token) []TaggedToken {
	out := make([]TaggedToken, len(sentence))
	t.tagInto(out, sentence, nil)
	return out
}

// candidates returns the possible tags for a word, consulting the lexicon
// first and the suffix guesser for out-of-vocabulary words, the way tagInto
// does. The second return reports whether the word was found in the
// lexicon.
func (t *Tagger) candidates(word string) ([]lexicon.Tag, bool) {
	if tags, ok := t.lex[lowerWord(word)]; ok {
		return tags, true
	}
	return []lexicon.Tag{GuessTag(word)}, false
}

func tagsOf(tagged []TaggedToken) []lexicon.Tag {
	out := make([]lexicon.Tag, len(tagged))
	for i, tt := range tagged {
		out[i] = tt.Tag
	}
	return out
}

func TestTagSentenceBasicSVO(t *testing.T) {
	tg := NewTagger()
	toks := Tokenize([]byte("the child will find a book ."))
	tagged := tg.TagSentence(toks)
	want := []lexicon.Tag{lexicon.Det, lexicon.Noun, lexicon.Modal, lexicon.Verb, lexicon.Det, lexicon.Noun, lexicon.Punct}
	got := tagsOf(tagged)
	if len(got) != len(want) {
		t.Fatalf("tags = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tag %d (%q) = %v, want %v", i, tagged[i].Text, got[i], want[i])
		}
	}
}

func TestTagSentenceAmbiguityResolvedByContext(t *testing.T) {
	tg := NewTagger()
	// "the work" → noun reading; "they work" → verb reading.
	nounCase := tg.TagSentence(Tokenize([]byte("the work")))
	if nounCase[1].Tag != lexicon.Noun {
		t.Errorf("'the work' tagged %v, want NN", nounCase[1].Tag)
	}
	verbCase := tg.TagSentence(Tokenize([]byte("they work")))
	if verbCase[1].Tag != lexicon.Verb {
		t.Errorf("'they work' tagged %v, want VB", verbCase[1].Tag)
	}
}

func TestGuessTag(t *testing.T) {
	cases := []struct {
		word string
		want lexicon.Tag
	}{
		{"", lexicon.Unknown},
		{"12345", lexicon.Number},
		{"Chicago77x", lexicon.ProperN}, // capitalised wins
		{"flurbing", lexicon.VerbGer},
		{"flurbed", lexicon.VerbPast},
		{"flurbly", lexicon.Adverb},
		{"flurbous", lexicon.Adjective},
		{"flurbful", lexicon.Adjective},
		{"flurbness", lexicon.Noun},
		{"flurbtion", lexicon.Noun},
		{"flurbment", lexicon.Noun},
		{"flurbs", lexicon.PluralN},
		{"flurb", lexicon.Noun},
	}
	for _, c := range cases {
		if got := GuessTag(c.word); got != c.want {
			t.Errorf("GuessTag(%q) = %v, want %v", c.word, got, c.want)
		}
	}
}

func TestTagTextCounts(t *testing.T) {
	tg := NewTagger()
	text := []byte("the man runs. she quilness sees the dog.")
	_, res := tg.TagText(text)
	if res.Sentences != 2 {
		t.Errorf("sentences = %d, want 2", res.Sentences)
	}
	if res.Words != 8 {
		t.Errorf("words = %d, want 8", res.Words)
	}
	if res.Unknown < 1 {
		t.Errorf("unknown = %d, want ≥ 1 (runs/quilness)", res.Unknown)
	}
	if res.TagCounts[lexicon.Punct] != 2 {
		t.Errorf("punct count = %d, want 2", res.TagCounts[lexicon.Punct])
	}
}

func TestTagTextEmpty(t *testing.T) {
	tg := NewTagger()
	tagged, res := tg.TagText(nil)
	if len(tagged) != 0 || res.Sentences != 0 || res.Tokens != 0 {
		t.Errorf("empty tag run: %v, %+v", tagged, res)
	}
}

// tagFiles tags each file's whole content with one shared model instance
// (the paper's wrapper pattern) and merges the results.
func tagFiles(tg *Tagger, files []vfs.File) (*POSResult, error) {
	total := &POSResult{TagCounts: make(map[lexicon.Tag]int)}
	for _, f := range files {
		data, err := f.ReadAll()
		if err != nil {
			return nil, err
		}
		_, res := tg.TagText(data)
		total.Sentences += res.Sentences
		total.Tokens += res.Tokens
		total.Words += res.Words
		total.Unknown += res.Unknown
		for tag, n := range res.TagCounts {
			total.TagCounts[tag] += n
		}
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
	if res.Sentences != 3 {
		t.Errorf("sentences = %d, want 3", res.Sentences)
	}
	if res.Words != 3+3+2 {
		t.Errorf("words = %d, want 8", res.Words)
	}
}

func TestTagFilesMetadataOnlyFails(t *testing.T) {
	tg := NewTagger()
	if _, err := tagFiles(tg, []vfs.File{vfs.NewFile("m", 5)}); err == nil {
		t.Error("expected error for metadata-only file")
	}
}

// Reshaping invariant for POS: tagging the concatenation of files yields
// the same aggregate tag counts as tagging them separately, provided each
// file ends with sentence-final punctuation (the corpus generator
// guarantees whole sentences).
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
	if separate.Sentences != combined.Sentences {
		t.Errorf("sentence counts differ under reshaping: %d vs %d", separate.Sentences, combined.Sentences)
	}
	if separate.Words != combined.Words {
		t.Errorf("word counts differ under reshaping: %d vs %d", separate.Words, combined.Words)
	}
	for tag, n := range separate.TagCounts {
		if combined.TagCounts[tag] != n {
			t.Errorf("tag %v count differs: %d vs %d", tag, n, combined.TagCounts[tag])
		}
	}
}

// The tagger must understand the synthetic corpus: on generated text the
// out-of-vocabulary rate should stay near the style's RareWordProb.
func TestTaggerCoversGeneratedText(t *testing.T) {
	g := corpus.NewGenerator(corpus.NewsStyle(), 4)
	text := g.Text(20000)
	tg := NewTagger()
	_, res := tg.TagText(text)
	if res.Words == 0 {
		t.Fatal("no words tagged")
	}
	oovRate := float64(res.Unknown) / float64(res.Words)
	if oovRate > 0.10 {
		t.Errorf("OOV rate = %.3f, want ≤ 0.10 (style rare prob 0.03)", oovRate)
	}
}

// Complex style must produce measurably more tagging work per word
// (longer sentences, more OOV) — the root cause of the paper's Dubliners
// vs Agnes Grey 2x runtime difference.
func TestComplexityAffectsTaggerWork(t *testing.T) {
	tg := NewTagger()
	measure := func(style corpus.Style) (meanSentence, oov float64) {
		g := corpus.NewGenerator(style, 12)
		text := g.Text(30000)
		_, res := tg.TagText(text)
		return float64(res.Words) / float64(res.Sentences), float64(res.Unknown) / float64(res.Words)
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
	if tags, known := tg.candidates("the"); !known || tags[0] != lexicon.Det {
		t.Errorf("'the' lookup = %v, %v", tags, known)
	}
	if tags, known := tg.candidates("The"); !known || tags[0] != lexicon.Det {
		t.Errorf("case-folded lookup failed: %v, %v", tags, known)
	}
	if _, known := tg.candidates("zzzzgarbage"); known {
		t.Error("nonsense word reported as known")
	}
}

// Run with -race: a shared Tagger must be safe for concurrent use — the
// scan engine's forks all tag and test membership against one instance.
func TestTaggerConcurrentUse(t *testing.T) {
	tg := NewTagger()
	text := corpus.NewGenerator(corpus.NewsStyle(), 100).Text(20000)
	_, want := tg.TagText(text)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, res := tg.TagText(text); res.Words != want.Words || res.Unknown != want.Unknown {
				t.Errorf("concurrent TagText: %d words / %d unknown, want %d / %d", res.Words, res.Unknown, want.Words, want.Unknown)
			}
			unknown := 0
			for _, tok := range Tokenize(text) {
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
