package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/lexicon"
)

// TaggedToken is a token with its assigned part-of-speech tag.
type TaggedToken struct {
	Token
	Tag lexicon.Tag
}

// Tagger assigns part-of-speech tags using a lexicon, a suffix-based
// guesser for out-of-vocabulary words, and a bigram transition model —
// a compact stand-in for the Stanford left3words tagger the paper treats as
// a black box. Like the paper's wrapper, one Tagger instance processes many
// files, avoiding per-file model (re)initialisation (the paper's "startup
// cost of a new JVM for every file").
//
// A Tagger is safe for concurrent use after construction: tagging mutates
// no shared state.
type Tagger struct {
	lex map[string][]lexicon.Tag
	// set is lex's key set frozen for the scan path's membership tests.
	set *lexSet
	// trans[prev][cur] is the log-ish score of tag cur following prev.
	trans map[lexicon.Tag]map[lexicon.Tag]float64
}

// NewTagger builds a tagger over the embedded lexicon. Construction cost is
// deliberately non-trivial relative to tagging a single small file,
// mirroring the model-load cost that motivates the paper's batch wrapper.
func NewTagger() *Tagger {
	t := &Tagger{lex: lexicon.Entries(), trans: make(map[lexicon.Tag]map[lexicon.Tag]float64)}
	t.set = newLexSet(t.lex)
	set := func(prev, cur lexicon.Tag, w float64) {
		m, ok := t.trans[prev]
		if !ok {
			m = make(map[lexicon.Tag]float64)
			t.trans[prev] = m
		}
		m[cur] = w
	}
	// Hand-tuned transition weights encoding basic English order.
	start := lexicon.Tag("START")
	set(start, lexicon.Det, 2.0)
	set(start, lexicon.Pronoun, 1.8)
	set(start, lexicon.ProperN, 1.5)
	set(start, lexicon.Adverb, 0.6)
	set(lexicon.Det, lexicon.Noun, 2.0)
	set(lexicon.Det, lexicon.Adjective, 1.6)
	set(lexicon.Det, lexicon.PluralN, 1.4)
	set(lexicon.Adjective, lexicon.Noun, 2.0)
	set(lexicon.Adjective, lexicon.PluralN, 1.4)
	set(lexicon.Adjective, lexicon.Adjective, 0.8)
	set(lexicon.Noun, lexicon.Verb, 1.8)
	set(lexicon.Noun, lexicon.VerbPast, 1.6)
	set(lexicon.Noun, lexicon.Prep, 1.2)
	set(lexicon.Noun, lexicon.Conj, 0.8)
	set(lexicon.PluralN, lexicon.Verb, 1.8)
	set(lexicon.PluralN, lexicon.Prep, 1.2)
	set(lexicon.Pronoun, lexicon.Verb, 2.0)
	set(lexicon.Pronoun, lexicon.VerbPast, 1.8)
	set(lexicon.Pronoun, lexicon.Modal, 1.2)
	set(lexicon.Modal, lexicon.Verb, 2.2)
	set(lexicon.Verb, lexicon.Det, 1.8)
	set(lexicon.Verb, lexicon.Adverb, 1.4)
	set(lexicon.Verb, lexicon.Prep, 1.2)
	set(lexicon.Verb, lexicon.Pronoun, 1.0)
	set(lexicon.VerbPast, lexicon.Det, 1.8)
	set(lexicon.VerbPast, lexicon.Adverb, 1.4)
	set(lexicon.VerbPast, lexicon.Prep, 1.2)
	set(lexicon.Adverb, lexicon.Verb, 1.6)
	set(lexicon.Adverb, lexicon.Adjective, 1.2)
	set(lexicon.Adverb, lexicon.VerbPast, 1.2)
	set(lexicon.Prep, lexicon.Det, 2.0)
	set(lexicon.Prep, lexicon.Noun, 1.2)
	set(lexicon.Prep, lexicon.ProperN, 1.2)
	set(lexicon.Conj, lexicon.Det, 1.4)
	set(lexicon.Conj, lexicon.Pronoun, 1.4)
	set(lexicon.Conj, lexicon.Verb, 1.0)
	set(lexicon.ProperN, lexicon.Verb, 1.8)
	set(lexicon.ProperN, lexicon.VerbPast, 1.6)
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

// KnownWord reports whether a word (raw token bytes) is in the lexicon —
// the same membership test tagInto uses to count a token as Unknown, so
// single-pass kernels can compute out-of-vocabulary rates identical to
// TagText without tagging. A word made of word bytes — every token the
// tokenizer cuts from ASCII text — is answered by the frozen key set the
// analyzer's window loop probes, without allocating; anything else (a
// multi-byte rune chunk) takes the exact map lookup tagInto does.
func (t *Tagger) KnownWord(word []byte) bool {
	for _, c := range word {
		if !isWordByte(c) {
			_, ok := t.lex[lowerWord(string(word))]
			return ok
		}
	}
	return t.set.hasWord(word)
}

// GuessTag assigns a tag to an out-of-vocabulary word from surface clues:
// digits, capitalisation and derivational suffixes.
func GuessTag(word string) lexicon.Tag {
	if word == "" {
		return lexicon.Unknown
	}
	if isNumeric(word) {
		return lexicon.Number
	}
	first, _ := utf8.DecodeRuneInString(word)
	if unicode.IsUpper(first) {
		return lexicon.ProperN
	}
	lower := lowerWord(word)
	switch {
	case strings.HasSuffix(lower, "ing"):
		return lexicon.VerbGer
	case strings.HasSuffix(lower, "ed"):
		return lexicon.VerbPast
	case strings.HasSuffix(lower, "ly"):
		return lexicon.Adverb
	case strings.HasSuffix(lower, "ous"), strings.HasSuffix(lower, "ful"),
		strings.HasSuffix(lower, "ive"), strings.HasSuffix(lower, "able"):
		return lexicon.Adjective
	case strings.HasSuffix(lower, "ness"), strings.HasSuffix(lower, "tion"),
		strings.HasSuffix(lower, "ment"), strings.HasSuffix(lower, "ism"),
		strings.HasSuffix(lower, "ity"), strings.HasSuffix(lower, "er"):
		return lexicon.Noun
	case strings.HasSuffix(lower, "s"):
		return lexicon.PluralN
	}
	return lexicon.Noun
}

func isNumeric(word string) bool {
	for _, r := range word {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return len(word) > 0
}

// tagInto tags one sentence into dst (len(dst) == len(sentence)), and, when
// res is non-nil, folds the per-token accounting into it in the same pass —
// one lexicon lookup per word serves both the tag decision and the
// known/unknown bookkeeping, where TagText used to look each word up twice.
func (t *Tagger) tagInto(dst []TaggedToken, sentence []Token, res *POSResult) {
	prev := lexicon.Tag("START")
	for k, tok := range sentence {
		if tok.Punct {
			dst[k] = TaggedToken{Token: tok, Tag: lexicon.Punct}
			if res != nil {
				res.Tokens++
				res.TagCounts[lexicon.Punct]++
			}
			continue
		}
		var best lexicon.Tag
		cands, known := t.lex[lowerWord(tok.Text)]
		if !known {
			// A single guessed candidate always wins the scoring below;
			// skip straight to it without materialising a slice.
			best = GuessTag(tok.Text)
		} else {
			best = cands[0]
			bestScore := -1e9
			for rank, cand := range cands {
				// Lexical preference decays with rank; transitions add
				// context.
				score := -0.5 * float64(rank)
				if m, ok := t.trans[prev]; ok {
					score += m[cand]
				}
				if score > bestScore {
					bestScore = score
					best = cand
				}
			}
		}
		dst[k] = TaggedToken{Token: tok, Tag: best}
		prev = best
		if res != nil {
			res.Tokens++
			res.Words++
			res.TagCounts[best]++
			if !known {
				res.Unknown++
			}
		}
	}
}

// POSResult aggregates a tagging run.
type POSResult struct {
	Sentences int
	Tokens    int
	Words     int
	Unknown   int // out-of-vocabulary words routed through the guesser
	TagCounts map[lexicon.Tag]int
}

// TagText tokenises, splits and tags a whole document. The sentences
// partition the token stream exactly, so all tagged tokens live in one flat
// slab sized len(tokens), with each sentence's slice a window into it — two
// allocations for the whole document instead of one per sentence.
func (t *Tagger) TagText(text []byte) ([][]TaggedToken, *POSResult) {
	tokens := Tokenize(text)
	sentences := SplitSentences(tokens)
	res := &POSResult{TagCounts: make(map[lexicon.Tag]int)}
	slab := make([]TaggedToken, len(tokens))
	tagged := make([][]TaggedToken, len(sentences))
	off := 0
	for si, s := range sentences {
		dst := slab[off : off+len(s) : off+len(s)]
		t.tagInto(dst, s, res)
		tagged[si] = dst
		off += len(s)
		res.Sentences++
	}
	return tagged, res
}
