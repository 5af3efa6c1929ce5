// Package tokentest is the whole-document text analyzer the streaming
// analyzer kernel (textproc.StatsKernel) is held to: a tokenizer that
// copies out every token, a sentence splitter, the statistics over the
// sentences, and the out-of-vocabulary count by lexicon membership. It is
// written to be obviously right, not fast. textproc's, scan's and core's
// tests compare the kernel against it at every block split; like bmhtest
// it imports nothing from textproc, so textproc's own tests can use it
// without an import cycle.
package tokentest

import (
	"strings"
	"unicode"

	"repro/internal/lexicon"
)

// Token is a word or punctuation unit with its byte offset in the source.
type Token struct {
	Text  string
	Start int
	Punct bool
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '\''
}

// Tokenize splits text into word and punctuation tokens. Words are maximal
// runs of ASCII letters, digits and apostrophes; whitespace is space,
// newline, tab and carriage return; every other byte starts a chunk that
// takes the UTF-8 continuation bytes after it. A chunk is a word token
// when it is exactly one letter or digit rune, punctuation otherwise.
func Tokenize(text []byte) []Token {
	var tokens []Token
	i := 0
	n := len(text)
	for i < n {
		c := text[i]
		switch {
		case c == ' ' || c == '\n' || c == '\t' || c == '\r':
			i++
		case isWordByte(c):
			start := i
			for i < n && isWordByte(text[i]) {
				i++
			}
			tokens = append(tokens, Token{Text: string(text[start:i]), Start: start})
		default:
			start := i
			i++
			for i < n && text[i]&0xC0 == 0x80 {
				i++
			}
			r := []rune(string(text[start:i]))
			punct := len(r) != 1 || !(unicode.IsLetter(r[0]) || unicode.IsDigit(r[0]))
			tokens = append(tokens, Token{Text: string(text[start:i]), Start: start, Punct: punct})
		}
	}
	return tokens
}

// SplitSentences groups tokens into sentences at the punctuation tokens
// ".", "!" and "?". A trailing fragment without one forms a final
// sentence.
func SplitSentences(tokens []Token) [][]Token {
	var sentences [][]Token
	start := 0
	for i, tok := range tokens {
		if tok.Punct && (tok.Text == "." || tok.Text == "!" || tok.Text == "?") {
			sentences = append(sentences, tokens[start:i+1])
			start = i + 1
		}
	}
	if start < len(tokens) {
		sentences = append(sentences, tokens[start:])
	}
	return sentences
}

// Stats has textproc.TextStats' fields in its order, so a test converts
// one into the other.
type Stats struct {
	Tokens       int
	Words        int // non-punctuation tokens
	Sentences    int
	MeanSentence float64 // mean words per sentence
	MaxSentence  int
}

// Analyze computes the statistics of a whole text.
func Analyze(text []byte) Stats {
	tokens := Tokenize(text)
	sentences := SplitSentences(tokens)
	st := Stats{Tokens: len(tokens), Sentences: len(sentences)}
	for _, s := range sentences {
		words := 0
		for _, t := range s {
			if !t.Punct {
				words++
			}
		}
		st.Words += words
		st.MaxSentence = max(st.MaxSentence, words)
	}
	if st.Sentences > 0 {
		st.MeanSentence = float64(st.Words) / float64(st.Sentences)
	}
	return st
}

var vocabulary = lexicon.Entries()

// Known reports whether a word is in the lexicon. A word with an ASCII
// uppercase letter is looked up lowercased (Unicode-wide, so the Kelvin
// sign in "KNOW" folds to 'k'); any other word is looked up as it
// is. The lexicon stores its proper nouns capitalised, so no lookup
// reaches them.
func Known(word string) bool {
	if strings.ContainsAny(word, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		word = strings.ToLower(word)
	}
	_, ok := vocabulary[word]
	return ok
}

// Unknown counts the text's out-of-vocabulary words: the word tokens that
// are not Known.
func Unknown(text []byte) int {
	n := 0
	for _, t := range Tokenize(text) {
		if !t.Punct && !Known(t.Text) {
			n++
		}
	}
	return n
}

// OOVRate is the text's out-of-vocabulary share: Unknown over the word
// tokens, 0 for a text without words. It is what the POS complexity
// factor takes beside the sentence statistics.
func OOVRate(text []byte) float64 {
	words := Analyze(text).Words
	if words == 0 {
		return 0
	}
	return float64(Unknown(text)) / float64(words)
}
