package textproc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/lexicon"
)

// lexKeyMax is the longest key a lexSet can hold: two little-endian
// uint64 halves. A longer word is unknown without a probe.
const lexKeyMax = 16

// lexSet is the lexicon's key set frozen for membership tests on the scan
// path: the keys packed little-endian and zero-padded into [2]uint64, in an
// open-addressed table with linear probing, at most a quarter full so that
// nearly every key sits in its home slot. No word byte is NUL, so the zero
// key of an empty slot matches no query and ends the probe. It is built
// once by NewTagger and only read afterwards — every kernel fork shares it.
//
// Keys are stored verbatim while every query is folded, so a key with an
// uppercase byte (the proper nouns) can never match: exactly the map's
// behaviour, whose lookups fold the query too.
type lexSet struct {
	slots [][2]uint64 // a power of two
	shift uint        // 64 - log2(len(slots))
}

func newLexSet(lex map[string][]lexicon.Tag) *lexSet {
	s := &lexSet{slots: make([][2]uint64, 1), shift: 64}
	for len(s.slots) < 4*len(lex) {
		s.slots, s.shift = make([][2]uint64, 2*len(s.slots)), s.shift-1
	}
	for w := range lex {
		if len(w) > lexKeyMax {
			panic(fmt.Sprintf("textproc: lexicon key %q is longer than %d bytes", w, lexKeyMax))
		}
		var buf [lexKeyMax]byte
		copy(buf[:], w)
		k := [2]uint64{binary.LittleEndian.Uint64(buf[:8]), binary.LittleEndian.Uint64(buf[8:])}
		i := s.home(k[0], k[1])
		for s.slots[i] != ([2]uint64{}) {
			i = (i + 1) & uint64(len(s.slots)-1)
		}
		s.slots[i] = k
	}
	return s
}

// home is the slot a key's probe starts at: a multiply-shift hash by
// 2^64/φ.
func (s *lexSet) home(lo, hi uint64) uint64 {
	return (lo ^ bits.RotateLeft64(hi, 29)) * 0x9E3779B97F4A7C15 >> s.shift
}

// has reports whether the packed query is a key.
func (s *lexSet) has(lo, hi uint64) bool {
	for i := s.home(lo, hi); ; i = (i + 1) & uint64(len(s.slots)-1) {
		if k := &s.slots[i]; k[0] == lo && k[1] == hi {
			return true
		} else if k[0] == 0 {
			return false
		}
	}
}

// lexKey packs a query: the n-byte word (1 <= n <= lexKeyMax) whose bytes
// load little-endian as lo, hi — bytes past n are ignored — ASCII-folded
// and zero-padded like the stored keys. Every byte of the word must be a
// word byte: for those, setting bit 0x20 is the whole fold (it lowercases
// the letters, and the digits and the apostrophe carry the bit already).
func lexKey(lo, hi uint64, n int) (uint64, uint64) {
	const fold = 0x2020202020202020
	m := &lexMasks[n]
	return (lo | fold) & m[0], (hi | fold) & m[1]
}

// lexMasks[n] keeps the first n bytes of a 16-byte little-endian load.
var lexMasks = func() (m [lexKeyMax + 1][2]uint64) {
	for n := range m {
		m[n] = [2]uint64{1<<(8*uint(n)) - 1, ^uint64(0) >> (8 * uint(lexKeyMax-n))} // a shift by 64 or more yields 0
	}
	return m
}()

// hasWord is has for a word of word bytes held in a slice of its own (no
// readable margin after it).
func (s *lexSet) hasWord(word []byte) bool {
	if len(word) == 0 || len(word) > lexKeyMax {
		return false
	}
	var buf [lexKeyMax]byte
	copy(buf[:], word)
	return s.has(lexKey(binary.LittleEndian.Uint64(buf[:8]), binary.LittleEndian.Uint64(buf[8:]), len(word)))
}
