package textproc

import (
	"encoding/binary"
	"math/bits"
)

// Word-at-a-time (SWAR) byte classification for the streaming analyzer's
// window loop: eight bytes are classified per uint64 with pure ALU ops —
// no per-byte table loads, no branches — and each class mask is compressed
// to eight bits so a 64-byte window becomes two 64-bit bitmaps.
//
// The range test: for a byte b < 0x80 and a bound c <= 0x80, b + (0x80 - c)
// has its high bit set iff b >= c, and cannot carry into the next lane
// (max 0x7F + 0x80 = 0xFF) — so one add tests all eight lanes, and
// "lo <= b < hi" is the high bit of (x + ge(lo)) &^ (x + ge(hi)). That
// holds only when every byte in the word is ASCII: a window containing a
// high byte computes garbage here and is discarded — it goes through the
// per-byte loop.

const (
	swarOnes uint64 = 0x0101010101010101
	swarHigh uint64 = 0x8080808080808080
	swarGE   uint64 = 0x80 * swarOnes // x + (swarGE - c*swarOnes): a lane's high bit is set iff its byte >= c
)

// wordMask8 returns a mask with the high bit of each lane set iff that
// lane's byte is a word byte ([a-zA-Z0-9']). ASCII lanes only.
func wordMask8(x uint64) uint64 {
	y := x | 0x20*swarOnes // lowercase the letters
	return ((y+(swarGE-'a'*swarOnes))&^(y+(swarGE-('z'+1)*swarOnes)) |
		(x+(swarGE-'0'*swarOnes))&^(x+(swarGE-('9'+1)*swarOnes)) |
		(x+(swarGE-'\''*swarOnes))&^(x+(swarGE-('\''+1)*swarOnes))) & swarHigh
}

// spaceMask8 is wordMask8 for the analyzer's whitespace: '\t' and '\n'
// (adjacent), '\r' and ' '. ASCII lanes only.
func spaceMask8(x uint64) uint64 {
	return ((x+(swarGE-'\t'*swarOnes))&^(x+(swarGE-('\n'+1)*swarOnes)) |
		(x+(swarGE-'\r'*swarOnes))&^(x+(swarGE-('\r'+1)*swarOnes)) |
		(x+(swarGE-' '*swarOnes))&^(x+(swarGE-(' '+1)*swarOnes))) & swarHigh
}

// wordRunEnd returns the index of the first non-word byte at or after i,
// or len(p) if the run reaches the end: the byte loop's way through a
// word, eight bytes per step while they are ASCII.
func wordRunEnd(p []byte, i int) int {
	for ; len(p)-i >= 8; i += 8 {
		x := binary.LittleEndian.Uint64(p[i:])
		if x&swarHigh != 0 {
			break // no byte >= 0x80 is a word byte: the loop below stops at it
		}
		if m := wordMask8(x); m != swarHigh {
			return i + bits.TrailingZeros64(^m&swarHigh)>>3
		}
	}
	for i < len(p) && isWordByte(p[i]) {
		i++
	}
	return i
}

// movemask8 compresses a lane mask (high bit of each lane, as the masks
// above return) to eight bits, lane k to bit k: the multiply sums shifted
// copies so that every lane's bit lands in the top byte.
func movemask8(m uint64) uint64 {
	return (m >> 7) * 0x0102040810204080 >> 56
}
