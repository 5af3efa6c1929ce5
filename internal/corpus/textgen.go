package corpus

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/lexicon"
)

// Style controls the linguistic complexity of generated text. The §5.2
// complexity experiment (Dubliners vs. Agnes Grey) is reproduced by two
// styles with equal word budgets but different sentence statistics: POS
// tagging cost grows with sentence length and rare-word rate, so the
// complex style takes roughly twice as long per word.
type Style struct {
	Name string
	// MeanSentenceLen is the average number of words per sentence.
	MeanSentenceLen int
	// ClauseProb is the probability a sentence grows a subordinate clause
	// (each clause adds words and a comma).
	ClauseProb float64
	// RareWordProb is the probability a content word is replaced by an
	// out-of-lexicon token, which the analyzer counts as out of
	// vocabulary.
	RareWordProb float64
	// ZipfS is the Zipf exponent for word choice within an inventory
	// (higher = more repetitive, easier text).
	ZipfS float64
}

// PlainStyle approximates straightforward 19th-century narration (the Agnes
// Grey side of the experiment): short sentences, few clauses, common words.
func PlainStyle() Style {
	return Style{Name: "plain", MeanSentenceLen: 9, ClauseProb: 0.15, RareWordProb: 0.01, ZipfS: 1.5}
}

// ComplexStyle approximates denser modernist prose (the Dubliners side):
// long sentences, frequent subordination, more rare words.
func ComplexStyle() Style {
	return Style{Name: "complex", MeanSentenceLen: 22, ClauseProb: 0.55, RareWordProb: 0.08, ZipfS: 1.1}
}

// NewsStyle approximates online news articles, the Newslab corpus register.
func NewsStyle() Style {
	return Style{Name: "news", MeanSentenceLen: 14, ClauseProb: 0.30, RareWordProb: 0.03, ZipfS: 1.3}
}

// Generator produces deterministic synthetic English-like text in a given
// style. It is not safe for concurrent use; create one per goroutine.
type Generator struct {
	style Style
	r     *rand.Rand
	zipfs map[int]*rand.Zipf // one Zipf sampler per inventory length
}

// NewGenerator creates a generator with its own PRNG stream.
func NewGenerator(style Style, seed int64) *Generator {
	if style.MeanSentenceLen < 3 {
		style.MeanSentenceLen = 3
	}
	if style.ZipfS <= 1 {
		style.ZipfS = 1.01
	}
	return &Generator{
		style: style,
		r:     rand.New(rand.NewSource(seed)),
		zipfs: make(map[int]*rand.Zipf),
	}
}

// pick selects a word from an inventory with Zipf-distributed rank.
func (g *Generator) pick(words []string) string {
	z, ok := g.zipfs[len(words)]
	if !ok {
		z = rand.NewZipf(g.r, g.style.ZipfS, 1, uint64(len(words)-1))
		g.zipfs[len(words)] = z
	}
	return words[z.Uint64()]
}

// rareWord fabricates an out-of-lexicon token: a stem and an English
// derivational suffix.
func (g *Generator) rareWord() string {
	stems := []string{"quil", "brav", "morn", "vastel", "grend", "polt", "harve", "dulce", "ferv", "lumin"}
	suffixes := []string{"ness", "tion", "ment", "ing", "ed", "ly", "ous", "ful", "er", "ism"}
	return stems[g.r.Intn(len(stems))] + suffixes[g.r.Intn(len(suffixes))]
}

// contentWord draws from an open-class inventory, or, with the style's
// RareWordProb, fabricates a rare word instead.
func (g *Generator) contentWord(words []string) string {
	if g.r.Float64() < g.style.RareWordProb {
		return g.rareWord()
	}
	return g.pick(words)
}

// nounPhrase appends a determiner + optional adjective(s) + noun.
func (g *Generator) nounPhrase(out []string) []string {
	out = append(out, g.pick(lexicon.Determiners))
	nAdj := 0
	for g.r.Float64() < 0.35 && nAdj < 2 {
		out = append(out, g.contentWord(lexicon.Adjectives))
		nAdj++
	}
	return append(out, g.contentWord(lexicon.Nouns))
}

// clause appends subject-verb-object words.
func (g *Generator) clause(out []string) []string {
	if g.r.Float64() < 0.3 {
		out = append(out, g.pick(lexicon.Pronouns))
	} else {
		out = g.nounPhrase(out)
	}
	if g.r.Float64() < 0.2 {
		out = append(out, g.pick(lexicon.Modals))
	}
	out = append(out, g.contentWord(lexicon.Verbs))
	if g.r.Float64() < 0.4 {
		out = append(out, g.pick(lexicon.Adverbs))
	}
	out = g.nounPhrase(out)
	if g.r.Float64() < 0.5 {
		out = append(out, g.pick(lexicon.Prepositions))
		out = g.nounPhrase(out)
	}
	return out
}

// Sentence generates one sentence as a word slice (punctuation included as
// separate trailing token ".").
func (g *Generator) Sentence() []string {
	words := g.clause(nil)
	// Grow subordinate clauses until the target length is reached or the
	// clause lottery fails.
	for len(words) < g.style.MeanSentenceLen || g.r.Float64() < g.style.ClauseProb {
		if len(words) > 4*g.style.MeanSentenceLen {
			break
		}
		words = append(words, ",", g.pick(lexicon.Conjunctions))
		words = g.clause(words)
		if g.r.Float64() > g.style.ClauseProb {
			break
		}
	}
	return append(words, ".")
}

// Text renders whole sentences until at least size bytes are produced, then
// truncates to exactly size bytes (padding with spaces in the corner case of
// a short final buffer). The result is valid UTF-8 ASCII.
func (g *Generator) Text(size int) []byte {
	if size <= 0 {
		return []byte{}
	}
	var buf bytes.Buffer
	buf.Grow(size + 128)
	for buf.Len() < size {
		ws := g.Sentence()
		for i, w := range ws {
			if w == "," || w == "." {
				buf.WriteString(w)
				continue
			}
			if i > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(w)
		}
		buf.WriteByte(' ')
	}
	out := buf.Bytes()[:size]
	return out
}

// HTML renders text wrapped in a minimal news-article HTML skeleton, the
// shape of the Newslab collection's files. The output is exactly size
// bytes; sizes too small for the skeleton fall back to plain text.
func (g *Generator) HTML(size int) []byte {
	const header = "<html><head><title>article</title></head><body><p>"
	const footer = "</p></body></html>"
	if size <= len(header)+len(footer) {
		return g.Text(size)
	}
	body := g.Text(size - len(header) - len(footer))
	out := make([]byte, 0, size)
	out = append(out, header...)
	out = append(out, body...)
	out = append(out, footer...)
	return out
}

// BookSpec describes a Gutenberg-like full text for the complexity
// experiment: a word budget rendered in a single style.
type BookSpec struct {
	Title string
	Words int
	Style Style
}

// Dubliners returns the complex-prose preset (67,496 words in the paper).
func Dubliners() BookSpec {
	return BookSpec{Title: "Dubliners", Words: 67496, Style: ComplexStyle()}
}

// AgnesGrey returns the plain-prose preset (67,755 words in the paper).
func AgnesGrey() BookSpec {
	return BookSpec{Title: "Agnes Grey", Words: 67755, Style: PlainStyle()}
}

// GenerateBook renders the book as a byte slice with exactly the requested
// number of space-separated words (punctuation attaches to the preceding
// word and does not count toward the budget).
func GenerateBook(spec BookSpec, seed int64) []byte {
	g := NewGenerator(spec.Style, seed)
	var tokens []string
	count := 0
	for count < spec.Words {
		for _, w := range g.Sentence() {
			if count == spec.Words && w != "," && w != "." {
				break
			}
			tokens = append(tokens, w)
			if w != "," && w != "." {
				count++
			}
		}
	}
	// Trim trailing tokens beyond the budget (keep attached punctuation).
	for count > spec.Words {
		last := tokens[len(tokens)-1]
		tokens = tokens[:len(tokens)-1]
		if last != "," && last != "." {
			count--
		}
	}
	var buf bytes.Buffer
	started := false
	for _, w := range tokens {
		if w == "," || w == "." {
			buf.WriteString(w)
			continue
		}
		if started {
			buf.WriteByte(' ')
		}
		buf.WriteString(w)
		started = true
	}
	return buf.Bytes()
}

// CountWords counts space-separated word tokens (punctuation attached to the
// preceding word does not add tokens), matching GenerateBook's budget.
func CountWords(text []byte) int {
	n := 0
	inWord := false
	for _, b := range text {
		if b == ' ' || b == '\n' || b == '\t' {
			inWord = false
			continue
		}
		if !inWord {
			n++
			inWord = true
		}
	}
	return n
}

func (s Style) String() string {
	return fmt.Sprintf("style %s (len=%d clause=%.2f rare=%.2f)", s.Name, s.MeanSentenceLen, s.ClauseProb, s.RareWordProb)
}
