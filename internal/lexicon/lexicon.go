// Package lexicon holds the embedded English word inventory shared by the
// synthetic text generator (internal/corpus) and the part-of-speech tagger
// (internal/textproc). Keeping one inventory in one place guarantees the
// generator emits text the tagger genuinely understands, while the
// deliberately ambiguous entries and the open-class gaps exercise the
// tagger's disambiguation and suffix-guessing paths.
package lexicon

// Tag is a coarse part-of-speech tag (a compact Penn-Treebank-like set).
type Tag string

// The tag inventory.
const (
	Noun      Tag = "NN"
	PluralN   Tag = "NNS"
	ProperN   Tag = "NNP"
	Verb      Tag = "VB"
	VerbPast  Tag = "VBD"
	VerbGer   Tag = "VBG"
	Adjective Tag = "JJ"
	Adverb    Tag = "RB"
	Det       Tag = "DT"
	Prep      Tag = "IN"
	Pronoun   Tag = "PRP"
	Conj      Tag = "CC"
	Modal     Tag = "MD"
	Number    Tag = "CD"
	Punct     Tag = "PUNCT"
	Unknown   Tag = "UNK"
)

// Determiners, prepositions, pronouns, conjunctions and modals are closed
// classes: the tagger knows all of them.
var (
	Determiners  = []string{"the", "a", "an", "this", "that", "these", "those", "each", "every", "some", "any", "no"}
	Prepositions = []string{"of", "in", "on", "at", "by", "for", "with", "from", "into", "through", "over", "under", "between", "against", "during", "without", "within", "toward", "upon", "about"}
	Pronouns     = []string{"he", "she", "it", "they", "we", "you", "i", "him", "her", "them", "us", "me", "himself", "herself", "itself"}
	Conjunctions = []string{"and", "but", "or", "nor", "yet", "so", "because", "although", "while", "whereas", "unless", "since"}
	Modals       = []string{"will", "would", "can", "could", "may", "might", "shall", "should", "must"}
)

// Open-class inventories. These drive both generation (picked by Zipf rank)
// and tagging (lexicon lookup).
var (
	Nouns = []string{
		"time", "year", "people", "way", "day", "man", "thing", "woman", "life", "child",
		"world", "school", "state", "family", "student", "group", "country", "problem", "hand", "part",
		"place", "case", "week", "company", "system", "program", "question", "work", "government", "number",
		"night", "point", "home", "water", "room", "mother", "area", "money", "story", "fact",
		"month", "lot", "right", "study", "book", "eye", "job", "word", "business", "issue",
		"side", "kind", "head", "house", "service", "friend", "father", "power", "hour", "game",
		"line", "end", "member", "law", "car", "city", "community", "name", "president", "team",
		"minute", "idea", "kid", "body", "information", "street", "art", "war", "history", "party",
		"result", "change", "morning", "reason", "research", "girl", "guy", "moment", "air", "teacher",
		"force", "education", "foot", "boy", "age", "policy", "process", "music", "market", "sense",
	}
	Verbs = []string{
		"be", "have", "do", "say", "get", "make", "go", "know", "take", "see",
		"come", "think", "look", "want", "give", "use", "find", "tell", "ask", "seem",
		"feel", "try", "leave", "call", "keep", "provide", "hold", "turn", "follow", "begin",
		"show", "hear", "play", "run", "move", "live", "believe", "bring", "happen", "write",
		"sit", "stand", "lose", "pay", "meet", "include", "continue", "set", "learn", "lead",
		"understand", "watch", "remain", "speak", "read", "spend", "grow", "open", "walk", "win",
	}
	Adjectives = []string{
		"good", "new", "first", "last", "long", "great", "little", "own", "other", "old",
		"right", "big", "high", "different", "small", "large", "next", "early", "young", "important",
		"few", "public", "bad", "same", "able", "human", "local", "late", "hard", "major",
		"better", "economic", "strong", "possible", "whole", "free", "military", "true", "federal", "international",
		"full", "special", "easy", "clear", "recent", "certain", "personal", "open", "red", "difficult",
	}
	Adverbs = []string{
		"up", "now", "then", "out", "just", "also", "here", "well", "only", "very",
		"even", "back", "there", "down", "still", "around", "too", "however", "again", "never",
		"really", "most", "why", "often", "always", "sometimes", "together", "far", "once", "quickly",
		"slowly", "quietly", "carefully", "suddenly", "finally", "nearly", "rarely", "deeply", "gently", "firmly",
	}
	ProperNouns = []string{
		"London", "Chicago", "Amazon", "Europe", "America", "Dublin", "Gabriel", "Agnes", "James", "Emily",
		"Monday", "January", "Thames", "Oxford", "Boston", "Maria", "Eveline", "Joyce", "Bronte", "Gutenberg",
	}
)

// Ambiguous words carry more than one plausible tag; the first entry is the
// most frequent reading. They force the tagger's transition model to do real
// work (e.g. "work" as noun vs. verb).
var Ambiguous = map[string][]Tag{
	"work":  {Noun, Verb},
	"play":  {Verb, Noun},
	"run":   {Verb, Noun},
	"open":  {Adjective, Verb},
	"right": {Adjective, Noun, Adverb},
	"set":   {Verb, Noun},
	"watch": {Verb, Noun},
	"back":  {Adverb, Noun, Verb},
	"study": {Noun, Verb},
	"call":  {Verb, Noun},
	"show":  {Verb, Noun},
	"move":  {Verb, Noun},
	"turn":  {Verb, Noun},
	"walk":  {Verb, Noun},
	"that":  {Det, Conj},
	"so":    {Adverb, Conj},
	"down":  {Adverb, Prep},
	"up":    {Adverb, Prep},
	"out":   {Adverb, Prep},
	"in":    {Prep, Adverb},
}

// Entries returns the full word → candidate-tags lexicon. The map is built
// fresh on each call so callers may mutate their copy.
func Entries() map[string][]Tag {
	lex := make(map[string][]Tag, 512)
	add := func(words []string, tag Tag) {
		for _, w := range words {
			if _, ok := lex[w]; !ok {
				lex[w] = []Tag{tag}
			}
		}
	}
	// Ambiguous entries take priority: install them first.
	for w, tags := range Ambiguous {
		lex[w] = append([]Tag(nil), tags...)
	}
	add(Determiners, Det)
	add(Prepositions, Prep)
	add(Pronouns, Pronoun)
	add(Conjunctions, Conj)
	add(Modals, Modal)
	add(Nouns, Noun)
	add(Verbs, Verb)
	add(Adjectives, Adjective)
	add(Adverbs, Adverb)
	add(ProperNouns, ProperN)
	return lex
}
