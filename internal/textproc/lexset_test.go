package textproc

import (
	"fmt"
	"testing"

	"repro/internal/lexicon"
)

// TestLexSetHoldsExactlyItsKeys builds sets three times the embedded
// lexicon's size, keys of every length up to lexKeyMax, so that probes run
// past occupied slots and wrap: every key must be found, and neither a
// key's prefix, its extension nor its neighbour may be.
func TestLexSetHoldsExactlyItsKeys(t *testing.T) {
	for seed := 0; seed < 8; seed++ {
		lex := make(map[string][]lexicon.Tag)
		for i := 0; len(lex) < 1000; i++ {
			key := fmt.Sprintf("%d'%x%o", seed, i*7919, i)
			lex[key[:1+(i+len(key))%min(len(key), lexKeyMax)]] = nil
		}
		set := newLexSet(lex)
		for key := range lex {
			if !set.hasWord([]byte(key)) {
				t.Fatalf("seed %d: key %q not found", seed, key)
			}
			for _, other := range []string{key[:len(key)-1], key + "0", key[:len(key)-1] + "z"} {
				if _, isKey := lex[other]; !isKey && set.hasWord([]byte(other)) {
					t.Fatalf("seed %d: %q found, it is not a key (%q is)", seed, other, key)
				}
			}
		}
	}
}
