package textproc

import (
	"strings"
	"testing"
)

// TestClassTableMatchesPredicates pins the shared tables to the original
// predicate definitions, byte by byte over the full 256-entry range —
// the stream analyzer, searchers and lexicon fold all read
// these tables, so a drifted entry would silently change every scanner
// at once.
func TestClassTableMatchesPredicates(t *testing.T) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		wantSpace := b == ' ' || b == '\n' || b == '\t' || b == '\r'
		wantWord := b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '\''
		wantLetter := b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
		wantDigit := b >= '0' && b <= '9'
		wantUpper := b >= 'A' && b <= 'Z'
		if got := classTable[b]&ClassSpace != 0; got != wantSpace {
			t.Errorf("ClassSpace(%#x) = %v, want %v", b, got, wantSpace)
		}
		if got := isWordByte(b); got != wantWord {
			t.Errorf("isWordByte(%#x) = %v, want %v", b, got, wantWord)
		}
		if got := classTable[b]&ClassLetter != 0; got != wantLetter {
			t.Errorf("ClassLetter(%#x) = %v, want %v", b, got, wantLetter)
		}
		if got := classTable[b]&ClassDigit != 0; got != wantDigit {
			t.Errorf("ClassDigit(%#x) = %v, want %v", b, got, wantDigit)
		}
		if got := isUpperByte(b); got != wantUpper {
			t.Errorf("isUpperByte(%#x) = %v, want %v", b, got, wantUpper)
		}
	}
}

// TestFoldTableMatchesStringsToLower: the byte fold agrees with
// strings.ToLower on every ASCII byte and is the identity elsewhere
// (multi-byte runes must pass through untouched or UTF-8 would break).
func TestFoldTableMatchesStringsToLower(t *testing.T) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		got := foldTable[b]
		if b < 0x80 {
			want := strings.ToLower(string(rune(b)))
			if string(rune(got)) != want {
				t.Errorf("Fold(%q) = %q, want %q", b, got, want)
			}
		} else if got != b {
			t.Errorf("Fold(%#x) = %#x, want identity for non-ASCII", b, got)
		}
	}
}

// TestClassesAreDisjointWhereExpected: a byte is never both space and
// word, and upper implies letter implies word.
func TestClassesAreDisjointWhereExpected(t *testing.T) {
	for c := 0; c < 256; c++ {
		cl := classTable[c]
		if cl&ClassSpace != 0 && cl&ClassWord != 0 {
			t.Errorf("byte %#x is both space and word", c)
		}
		if cl&ClassUpper != 0 && cl&ClassLetter == 0 {
			t.Errorf("byte %#x is upper but not letter", c)
		}
		if cl&ClassLetter != 0 && cl&ClassWord == 0 {
			t.Errorf("byte %#x is letter but not word", c)
		}
	}
}

// TestSWARMasksMatchClassTable: over every ASCII byte in every lane, next
// to neighbours from the other classes, the window loop's eight-at-a-time
// masks say exactly what the per-byte tables say.
func TestSWARMasksMatchClassTable(t *testing.T) {
	for _, fill := range []byte{0x00, ' ', 'a', 'Z', '9', '\'', '\n', '.', 0x7f} {
		for b := 0; b < 0x80; b++ {
			for lane := uint(0); lane < 8; lane++ {
				x := uint64(fill)*swarOnes&^(0xff<<(8*lane)) | uint64(b)<<(8*lane)
				var wantWord, wantSpace uint64
				for k := uint(0); k < 8; k++ {
					c := byte(x >> (8 * k))
					if isWordByte(c) {
						wantWord |= 1 << k
					}
					if classTable[c]&ClassSpace != 0 {
						wantSpace |= 1 << k
					}
				}
				if got := movemask8(wordMask8(x)); got != wantWord {
					t.Fatalf("word bits of %016x: %08b, want %08b", x, got, wantWord)
				}
				if got := movemask8(spaceMask8(x)); got != wantSpace {
					t.Fatalf("space bits of %016x: %08b, want %08b", x, got, wantSpace)
				}
			}
		}
	}
}
