package dist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
)

// A record is one completed task's kernel states, framed once for both
// places they leave the process — the body of a worker's /v1/scan
// answer and an entry of the checkpoint journal (integers little-endian):
//
//	"JREC" | task u32 | state count u32 |
//	per state: length u32 | bytes |
//	CRC-32C u32 over everything between the magic and the trailer
//
// The states are wrapped, not re-encoded. CRC-32C because each side sums
// 2.77 MB per dist-packed op: 0.12 ms on hash/crc32's hardware path,
// 3.68 ms for the byte-serial FNV-64a the journal used to carry.
const recordMagic = "JREC"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// How a record fails to parse: the wire treats every one as a worker
// that went away mid-answer, the journal tells a torn tail from the rest.
var (
	errRecordTorn  = errors.New("record ends early")
	errRecordMagic = errors.New("bad record magic")
	errRecordSum   = errors.New("record checksum mismatch")
)

// appendRecord appends the record for (task, states) to dst, growing it
// once, to the exact size.
func appendRecord(dst []byte, task int, states [][]byte) []byte {
	size := len(recordMagic) + 4 + 4 + 4
	for _, s := range states {
		size += 4 + len(s)
	}
	dst = append(slices.Grow(dst, size), recordMagic...)
	body := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(task))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(states)))
	for _, s := range states {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[body:], castagnoli))
}

// parseRecord decodes the record at the head of raw and reports how
// many bytes it spans; the returned states alias raw. Every count and
// length is checked against the bytes that remain before anything is
// reserved for it. On errRecordSum n is still the span of the (complete,
// wrongly summed) record; on the other errors it is 0.
func parseRecord(raw []byte) (task int, states [][]byte, n int, err error) {
	if len(raw) < len(recordMagic)+4+4 {
		return 0, nil, 0, errRecordTorn
	}
	if string(raw[:len(recordMagic)]) != recordMagic {
		return 0, nil, 0, errRecordMagic
	}
	off := len(recordMagic)
	task = int(binary.LittleEndian.Uint32(raw[off:]))
	count := int(binary.LittleEndian.Uint32(raw[off+4:]))
	off += 8
	if count > (len(raw)-off)/4 { // each state costs at least its length field
		return 0, nil, 0, errRecordTorn
	}
	states = make([][]byte, count)
	for i := range states {
		if len(raw)-off < 4 {
			return 0, nil, 0, errRecordTorn
		}
		size := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		if size > len(raw)-off {
			return 0, nil, 0, errRecordTorn
		}
		states[i] = raw[off : off+size : off+size]
		off += size
	}
	if len(raw)-off < 4 {
		return 0, nil, 0, errRecordTorn
	}
	if binary.LittleEndian.Uint32(raw[off:]) != crc32.Checksum(raw[len(recordMagic):off], castagnoli) {
		return 0, nil, off + 4, errRecordSum
	}
	return task, states, off + 4, nil
}
