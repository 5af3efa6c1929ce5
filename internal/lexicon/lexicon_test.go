package lexicon

import (
	"hash/fnv"
	"sort"
	"testing"
)

// inventories lists every word list the lexicon is built from.
func inventories() map[string][]string {
	return map[string][]string{
		"det": Determiners, "prep": Prepositions, "pron": Pronouns, "conj": Conjunctions, "mod": Modals,
		"noun": Nouns, "verb": Verbs, "adj": Adjectives, "adv": Adverbs, "proper": ProperNouns,
	}
}

func TestEntriesCoverAllInventories(t *testing.T) {
	lex := Entries()
	for class, words := range inventories() {
		for _, w := range words {
			if _, ok := lex[w]; !ok {
				t.Errorf("%s word %q missing from lexicon", class, w)
			}
		}
	}
}

// TestEntriesKeySetIsPinned holds the lexicon to its recorded key set:
// every out-of-vocabulary count the repository reports — the complexity
// experiment's, the measured profiles', every golden — is a membership
// test against these keys, so any change to them changes those numbers.
func TestEntriesKeySetIsPinned(t *testing.T) {
	lex := Entries()
	keys := make([]string, 0, len(lex))
	for k := range lex {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	if len(keys) != 336 || h.Sum64() != 0x45476f142f029876 {
		t.Errorf("lexicon has %d keys, digest %#x; recorded: 336, 0x45476f142f029876", len(keys), h.Sum64())
	}
}

func TestEntriesFreshCopy(t *testing.T) {
	a := Entries()
	delete(a, "the")
	if _, ok := Entries()["the"]; !ok {
		t.Error("Entries returns shared state")
	}
}

func TestSize(t *testing.T) {
	if n := len(Entries()); n < 300 {
		t.Errorf("lexicon size %d, want ≥ 300", n)
	}
}

func TestNoDuplicateWordsAcrossClosedClasses(t *testing.T) {
	seen := map[string]string{}
	for _, class := range []string{"det", "prep", "pron", "conj", "mod"} {
		for _, w := range inventories()[class] {
			if prev, dup := seen[w]; dup {
				t.Errorf("word %q in both %s and %s", w, prev, class)
			}
			seen[w] = class
		}
	}
}
