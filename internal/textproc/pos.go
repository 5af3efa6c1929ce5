package textproc

import (
	"strings"

	"repro/internal/lexicon"
)

// Tagger is the analyzer's vocabulary: the embedded lexicon and its key
// set frozen for the scan path. The paper treats the Stanford left3words
// tagger as a black box whose cost grows with volume and with sentence
// complexity; the analyzer kernel measures both in one pass, sentence
// statistics and the out-of-vocabulary words counted against this
// lexicon, so no tag is ever chosen. Like the paper's wrapper, one Tagger
// serves many files, avoiding per-file model (re)initialisation (the
// paper's "startup cost of a new JVM for every file").
//
// A Tagger is safe for concurrent use after construction: it is only read.
type Tagger struct {
	lex map[string]struct{}
	// set is lex's key set frozen for the scan path's membership tests.
	set *lexSet
}

// NewTagger builds the vocabulary over the embedded lexicon: its key set
// and the frozen table the analyzer kernel probes.
func NewTagger() *Tagger {
	t := &Tagger{lex: lexicon.Entries()}
	t.set = newLexSet(t.lex)
	return t
}

// lowerWord lowercases a word for lexicon lookup, returning the input
// unchanged (no allocation) when it is already free of ASCII uppercase —
// the overwhelmingly common case in running text.
func lowerWord(word string) string {
	for i := 0; i < len(word); i++ {
		if isUpperByte(word[i]) {
			return strings.ToLower(word)
		}
	}
	return word
}

// KnownWord reports whether a word (raw token bytes) is in the lexicon:
// the membership test by which the analyzer counts a word token as out of
// vocabulary. A word made of word bytes — every word token cut from ASCII
// text — is answered by the frozen key set the analyzer's window loop
// probes, without allocating; anything else (a multi-byte rune chunk)
// takes the exact map lookup of the folded word.
func (t *Tagger) KnownWord(word []byte) bool {
	for _, c := range word {
		if !isWordByte(c) {
			_, ok := t.lex[lowerWord(string(word))]
			return ok
		}
	}
	return t.set.hasWord(word)
}
