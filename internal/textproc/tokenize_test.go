package textproc

import (
	"strings"
	"testing"

	"repro/internal/textproc/tokentest"
)

// The tokenizer cases pin the token boundaries twice: the oracle's tokens
// against the written-out expectation, and the analyzer kernel against
// the oracle on the same text at block sizes down to one byte.

func texts(toks []tokentest.Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// holdKernel fails the test unless the analyzer kernel agrees with the
// oracle on text at every block size from one byte to the whole.
func holdKernel(t *testing.T, text string) {
	t.Helper()
	if diff := analyzerOracleDiff(NewTagger(), []byte(text), 1, 2, 3, len(text)+1); diff != "" {
		t.Errorf("%q: %s", text, diff)
	}
}

func TestTokenizeWordsAndPunct(t *testing.T) {
	toks := tokentest.Tokenize([]byte("The cat, quickly."))
	want := []string{"The", "cat", ",", "quickly", "."}
	got := texts(toks)
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if !toks[2].Punct || !toks[4].Punct {
		t.Error("punctuation not flagged")
	}
	if toks[0].Punct || toks[1].Punct {
		t.Error("words flagged as punctuation")
	}
	holdKernel(t, "The cat, quickly.")
}

func TestTokenizeOffsets(t *testing.T) {
	text := []byte("ab cd.")
	toks := tokentest.Tokenize(text)
	if toks[0].Start != 0 || toks[1].Start != 3 || toks[2].Start != 5 {
		t.Errorf("offsets wrong: %+v", toks)
	}
	for _, tok := range toks {
		if got := string(text[tok.Start : tok.Start+len(tok.Text)]); got != tok.Text {
			t.Errorf("offset slice %q != token %q", got, tok.Text)
		}
	}
}

func TestTokenizeEmptyAndWhitespace(t *testing.T) {
	if toks := tokentest.Tokenize(nil); len(toks) != 0 {
		t.Errorf("tokens of nil = %v", toks)
	}
	if toks := tokentest.Tokenize([]byte("  \n\t ")); len(toks) != 0 {
		t.Errorf("tokens of whitespace = %v", toks)
	}
	holdKernel(t, "")
	holdKernel(t, "  \n\t ")
}

func TestTokenizeApostropheAndDigits(t *testing.T) {
	toks := texts(tokentest.Tokenize([]byte("it's 42 o'clock")))
	want := []string{"it's", "42", "o'clock"}
	if len(toks) != 3 {
		t.Fatalf("tokens = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
	holdKernel(t, "it's 42 o'clock")
}

func TestTokenizeMultibyteRune(t *testing.T) {
	toks := tokentest.Tokenize([]byte("a é b"))
	if len(toks) != 3 {
		t.Fatalf("tokens = %v", texts(toks))
	}
	if toks[1].Text != "é" {
		t.Errorf("middle token = %q", toks[1].Text)
	}
	if toks[1].Punct {
		t.Error("letter rune flagged as punctuation")
	}
	holdKernel(t, "a é b")
}

// TestTokenizeMatchesReference holds the analyzer kernel's tokenization to
// the reference tokenizer on text built to break it: quotes, ellipses,
// every whitespace byte, lone apostrophes, multi-byte runes of every
// length and invalid UTF-8.
func TestTokenizeMatchesReference(t *testing.T) {
	for _, s := range []string{
		"",
		"plain words only",
		"It's a test, isn't it? Yes! No...",
		"tabs\tand\nnewlines\r\nmixed  spaces",
		"digits 123 mixed42 '' ' lone",
		"unicode: café über €100 —dash— 世界",
		"\x80 stray continuation \xff invalid",
		strings.Repeat("The quick brown fox, jumps! Over 9 lazy dogs? ", 50),
	} {
		holdKernel(t, s)
	}
}

func TestSplitSentences(t *testing.T) {
	text := "One two. Three! Four five"
	sents := tokentest.SplitSentences(tokentest.Tokenize([]byte(text)))
	if len(sents) != 3 {
		t.Fatalf("sentences = %d, want 3", len(sents))
	}
	if len(sents[0]) != 3 || len(sents[1]) != 2 || len(sents[2]) != 2 {
		t.Errorf("sentence lengths: %d %d %d", len(sents[0]), len(sents[1]), len(sents[2]))
	}
	holdKernel(t, text)
}

func TestSplitSentencesEmpty(t *testing.T) {
	if s := tokentest.SplitSentences(nil); len(s) != 0 {
		t.Errorf("sentences of nil = %v", s)
	}
}

func TestAnalyze(t *testing.T) {
	text := "The cat sat. The dog, however, ran away quickly."
	st := tokentest.Analyze([]byte(text))
	if st.Sentences != 2 {
		t.Errorf("sentences = %d, want 2", st.Sentences)
	}
	if st.Words != 3+6 {
		t.Errorf("words = %d, want 9", st.Words)
	}
	if st.MaxSentence != 6 {
		t.Errorf("max sentence = %d, want 6", st.MaxSentence)
	}
	if st.MeanSentence != 4.5 {
		t.Errorf("mean sentence = %v, want 4.5", st.MeanSentence)
	}
	holdKernel(t, text)
}

func TestAnalyzeEmpty(t *testing.T) {
	st := tokentest.Analyze(nil)
	if st.Sentences != 0 || st.Words != 0 || st.MeanSentence != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}
