package textproc

// Byte classification is centralised in two 256-entry tables shared by
// every byte-at-a-time scanner in the pipeline — the streaming stats
// analyzer, the multi-searcher's folded tables and the lexicon fold. One
// table means one definition of "word byte" and one fold rule, and a
// single lookup per byte is also the cheapest classification the hot
// loops can do (no multi-compare chains, no branch mispredicts on
// mixed-case text).
//
// Class semantics are frozen by the differential tests: words are
// maximal [a-zA-Z0-9'] runs, whitespace is exactly space/newline/tab/CR,
// and the fold maps 'A'-'Z' to 'a'-'z' leaving all other bytes (including
// UTF-8 continuation bytes) untouched.

// Class bits for classTable.
const (
	ClassSpace  uint8 = 1 << iota // ' ', '\n', '\t', '\r'
	ClassWord                     // letter, digit or apostrophe: a token-continuing byte
	ClassLetter                   // 'a'-'z', 'A'-'Z'
	ClassDigit                    // '0'-'9'
	ClassUpper                    // 'A'-'Z' (fold target differs from the byte itself)
)

var classTable = buildClassTable()

// foldTable maps each byte to its ASCII-lowercased form; non-letters and
// all bytes >= 0x80 map to themselves. This is the single fold rule used
// by the folded multi-searcher and the lexicon lookup.
var foldTable = buildFoldTable()

func buildClassTable() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		var cl uint8
		switch {
		case b == ' ' || b == '\n' || b == '\t' || b == '\r':
			cl |= ClassSpace
		case b >= 'a' && b <= 'z':
			cl |= ClassLetter | ClassWord
		case b >= 'A' && b <= 'Z':
			cl |= ClassLetter | ClassWord | ClassUpper
		case b >= '0' && b <= '9':
			cl |= ClassDigit | ClassWord
		case b == '\'':
			cl |= ClassWord
		}
		t[c] = cl
	}
	return t
}

func buildFoldTable() (t [256]byte) {
	for c := 0; c < 256; c++ {
		b := byte(c)
		if b >= 'A' && b <= 'Z' {
			b += 'a' - 'A'
		}
		t[c] = b
	}
	return t
}

// streamClass is the stream analyzer's fused dispatch table: the
// classTable bits pre-resolved into the analyzer's own branch targets, so
// Block's dispatch is one load and one jump per byte instead of a chain
// of classTable tests. '\n' gets its own class because it is the only
// whitespace byte with a side effect (the line counter).
const (
	scOther   uint8 = iota // opens a rune chunk (incl. bytes >= 0x80)
	scWord                 // continues/starts a word token
	scSpace                // ' ', '\t', '\r'
	scNewline              // '\n'
)

var streamClass = buildStreamClass()

func buildStreamClass() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case classTable[c]&ClassWord != 0:
			t[c] = scWord
		case byte(c) == '\n':
			t[c] = scNewline
		case classTable[c]&ClassSpace != 0:
			t[c] = scSpace
		}
	}
	return t
}

// isWordByte reports whether c continues a word token: [a-zA-Z0-9'].
func isWordByte(c byte) bool { return classTable[c]&ClassWord != 0 }

// isUpperByte reports whether c is an ASCII uppercase letter.
func isUpperByte(c byte) bool { return classTable[c]&ClassUpper != 0 }
