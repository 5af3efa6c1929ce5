package textproc

import "bytes"

const (
	wordMemoSize   = 1024 // power of two, ~18 kB per fork
	wordMemoMaxLen = 16   // longer words (rare) go straight to the tagger
)

type wordMemoEntry struct {
	n     uint8
	known bool
	word  [wordMemoMaxLen]byte
}

// wordMemo is a direct-mapped memo of a tagger's lexicon-membership
// answers. Natural text is Zipfian — a handful of words account for most
// tokens — so most KnownWord calls (a byte pre-scan plus a map probe)
// collapse into a hash, one length check and a ≤16-byte compare.
// Membership is a pure function of the word's bytes, so the memo cannot
// change any answer; it belongs to one kernel fork (not to the shared
// read-only Tagger) so concurrent forks never share mutable state. Each
// entry copies the word's bytes: the looked-up slice borrows the scanned
// block (possibly a memory mapping) and must not be retained.
type wordMemo struct {
	entries [wordMemoSize]wordMemoEntry
}

// known answers lexicon membership for word through the memo, consulting
// the tagger on a miss.
func (m *wordMemo) known(t *Tagger, word []byte) bool {
	if len(word) > wordMemoMaxLen {
		return t.KnownWord(word)
	}
	h := uint64(0xcbf29ce484222325)
	for _, c := range word {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	e := &m.entries[h&(wordMemoSize-1)]
	if int(e.n) == len(word) && bytes.Equal(e.word[:e.n], word) {
		return e.known
	}
	known := t.KnownWord(word)
	e.n = uint8(len(word))
	copy(e.word[:], word)
	e.known = known
	return known
}
