package scan

import (
	"math"
	"slices"

	"repro/internal/errs"
)

// StateCodec is the portable-state half of a kernel: Snapshot serialises
// the kernel's completed accumulation into a self-contained byte string
// and Restore loads one into a fresh instance (normally a Fork of an
// identically-configured prototype). Together with the Merge contract —
// Merge folds another kernel's entire accumulation and drains it — a
// kernel that has scanned one shard's files can cross a process boundary
// and fold into a coordinator's prototype exactly as it would have
// in-process: Restore on a fork, then Merge on the prototype, in input
// order.
//
// Contract:
//
//   - Snapshot is only defined between files (never mid-Begin/Block/End);
//     the engine's run functions always leave kernels in that state.
//   - Restore replaces the receiver's accumulation wholesale; restoring
//     into a non-empty kernel is a caller bug with undefined results.
//   - Snapshot(Restore(b)) must be byte-identical to b — the conformance
//     helper in scan/kerneltest pins this for every production kernel.
//   - The encoding carries no read-only configuration (automata,
//     lexicons); both sides must construct kernels from the same spec.
//
// Decoding failures are reported through the errs taxonomy: a truncated
// or trailing-garbage payload is ErrCorrupt, a payload for a different
// kernel type (wrong tag) or mismatched configuration is ErrInvalid.
type StateCodec interface {
	Snapshot() ([]byte, error)
	Restore([]byte) error
}

// SnapshotKernel snapshots k's state, or reports ErrInvalid when the
// kernel does not implement StateCodec.
func SnapshotKernel(k Kernel) ([]byte, error) {
	c, ok := k.(StateCodec)
	if !ok {
		return nil, errs.Invalid("scan: kernel %T has no portable state (StateCodec)", k)
	}
	return c.Snapshot()
}

// RestoreKernel restores state into k, or reports ErrInvalid when the
// kernel does not implement StateCodec.
func RestoreKernel(k Kernel, state []byte) error {
	c, ok := k.(StateCodec)
	if !ok {
		return errs.Invalid("scan: kernel %T has no portable state (StateCodec)", k)
	}
	return c.Restore(state)
}

// StateEncoder builds a kernel snapshot: fixed-width little-endian
// integers, IEEE-754 bit patterns for floats, length-prefixed strings.
// The layout is deterministic — the same accumulation always encodes to
// the same bytes, which is what lets tests compare snapshots for
// bit-identity instead of walking kernel internals.
type StateEncoder struct {
	buf []byte
}

// Grow reserves room for n more bytes, so a Snapshot that knows its
// size up front (a fixed width per file plus the names) encodes into one
// allocation instead of append-doubling its way there. Purely a capacity
// hint: the encoded bytes are the same with or without it.
func (e *StateEncoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Tag writes the kernel's one-byte type tag; by convention the first
// write of every snapshot.
func (e *StateEncoder) Tag(b byte) { e.buf = append(e.buf, b) }

// U64 writes a fixed-width little-endian uint64.
func (e *StateEncoder) U64(v uint64) {
	e.buf = append(e.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 writes an int64 (two's-complement bits).
func (e *StateEncoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int (as int64).
func (e *StateEncoder) Int(v int) { e.U64(uint64(int64(v))) }

// F64 writes a float64's IEEE-754 bits — exact, no formatting round-trip.
func (e *StateEncoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (e *StateEncoder) Str(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes returns the encoded snapshot.
func (e *StateEncoder) Bytes() []byte { return e.buf }

// StateDecoder reads a kernel snapshot produced by StateEncoder. Errors
// are sticky: after the first failure every read returns a zero value,
// and Err reports the failure — so Restore implementations read all
// fields unconditionally and check once at the end.
type StateDecoder struct {
	buf []byte
	off int
	err error
}

// NewStateDecoder returns a decoder over the snapshot bytes.
func NewStateDecoder(b []byte) *StateDecoder { return &StateDecoder{buf: b} }

func (d *StateDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Tag consumes the type tag and fails with ErrInvalid when it is not the
// expected one — the guard against restoring one kernel type's state
// into another.
func (d *StateDecoder) Tag(want byte) {
	if d.err != nil {
		return
	}
	if d.off >= len(d.buf) {
		d.fail(errs.Corrupt("scan: kernel state truncated at tag"))
		return
	}
	got := d.buf[d.off]
	d.off++
	if got != want {
		d.fail(errs.Invalid("scan: kernel state tag %q, want %q", got, want))
	}
}

// U64 reads a fixed-width little-endian uint64.
func (d *StateDecoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(errs.Corrupt("scan: kernel state truncated at offset %d", d.off))
		return 0
	}
	b := d.buf[d.off:]
	d.off += 8
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads an int64.
func (d *StateDecoder) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *StateDecoder) Int() int { return int(int64(d.U64())) }

// F64 reads a float64.
func (d *StateDecoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *StateDecoder) Str() string {
	n := d.U64()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(errs.Corrupt("scan: kernel state string of %d bytes overruns payload", n))
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Len reads a count of elements that each encode to at least minBytes
// and fails when that many cannot fit the remaining payload, so what a
// Restore reserves for its elements is bounded by the size of the state
// it was handed — a corrupt or hostile count cannot drive an allocation
// many times the payload before the per-element reads fail.
func (d *StateDecoder) Len(minBytes int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		d.fail(errs.Corrupt("scan: kernel state count %d overruns payload", n))
		return 0
	}
	return int(n)
}

// Err returns the first decoding failure, or nil.
func (d *StateDecoder) Err() error { return d.err }

// Finish fails the decode when bytes remain unconsumed, then returns the
// sticky error — the single check at the end of every Restore.
func (d *StateDecoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.fail(errs.Corrupt("scan: kernel state has %d trailing bytes", len(d.buf)-d.off))
	}
	return d.err
}
