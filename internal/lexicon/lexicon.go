// Package lexicon holds the embedded English word inventory shared by the
// synthetic text generator (internal/corpus) and the text analyzer
// (internal/textproc). Keeping one inventory in one place means every word
// the generator draws from it is in vocabulary to the analyzer; the rare
// words the generator fabricates are the ones the analyzer counts as out
// of vocabulary, a share the paper's POS cost grows with.
package lexicon

// Determiners, prepositions, pronouns, conjunctions and modals are closed
// classes: the lexicon holds all of them.
var (
	Determiners  = []string{"the", "a", "an", "this", "that", "these", "those", "each", "every", "some", "any", "no"}
	Prepositions = []string{"of", "in", "on", "at", "by", "for", "with", "from", "into", "through", "over", "under", "between", "against", "during", "without", "within", "toward", "upon", "about"}
	Pronouns     = []string{"he", "she", "it", "they", "we", "you", "i", "him", "her", "them", "us", "me", "himself", "herself", "itself"}
	Conjunctions = []string{"and", "but", "or", "nor", "yet", "so", "because", "although", "while", "whereas", "unless", "since"}
	Modals       = []string{"will", "would", "can", "could", "may", "might", "shall", "should", "must"}
)

// Open-class inventories. These drive both generation (picked by Zipf rank)
// and the analyzer's out-of-vocabulary test (lexicon lookup).
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

// Entries returns the lexicon: the set of every inventory's words. The
// map is built fresh on each call so callers may mutate their copy.
func Entries() map[string]struct{} {
	lex := make(map[string]struct{}, 512)
	for _, words := range [][]string{Determiners, Prepositions, Pronouns, Conjunctions, Modals,
		Nouns, Verbs, Adjectives, Adverbs, ProperNouns} {
		for _, w := range words {
			lex[w] = struct{}{}
		}
	}
	return lex
}
