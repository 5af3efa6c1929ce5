package lexicon

import "testing"

func TestEntriesCoverAllInventories(t *testing.T) {
	lex := Entries()
	check := func(words []string, want Tag) {
		t.Helper()
		for _, w := range words {
			tags, ok := lex[w]
			if !ok {
				t.Errorf("word %q missing from lexicon", w)
				continue
			}
			// Either the inventory tag is the primary reading or the word
			// is deliberately ambiguous and carries it somewhere.
			found := false
			for _, tag := range tags {
				if tag == want {
					found = true
				}
			}
			if _, ambiguous := Ambiguous[w]; !found && !ambiguous {
				t.Errorf("word %q tags %v lack %v", w, tags, want)
			}
		}
	}
	check(Determiners, Det)
	check(Prepositions, Prep)
	check(Pronouns, Pronoun)
	check(Conjunctions, Conj)
	check(Modals, Modal)
	check(Nouns, Noun)
	check(Verbs, Verb)
	check(Adjectives, Adjective)
	check(Adverbs, Adverb)
	check(ProperNouns, ProperN)
}

func TestAmbiguousEntriesHaveMultipleTags(t *testing.T) {
	lex := Entries()
	for w, tags := range Ambiguous {
		if len(tags) < 2 {
			t.Errorf("ambiguous word %q has %d tags", w, len(tags))
		}
		got := lex[w]
		if len(got) != len(tags) {
			t.Errorf("lexicon lost ambiguity for %q: %v", w, got)
		}
	}
}

func TestEntriesFreshCopy(t *testing.T) {
	a := Entries()
	a["the"] = []Tag{Unknown}
	b := Entries()
	if b["the"][0] != Det {
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
	classes := map[string][]string{
		"det":  Determiners,
		"prep": Prepositions,
		"pron": Pronouns,
		"conj": Conjunctions,
		"mod":  Modals,
	}
	for class, words := range classes {
		for _, w := range words {
			if prev, dup := seen[w]; dup {
				if _, ok := Ambiguous[w]; !ok {
					t.Errorf("word %q in both %s and %s without an Ambiguous entry", w, prev, class)
				}
			}
			seen[w] = class
		}
	}
}
