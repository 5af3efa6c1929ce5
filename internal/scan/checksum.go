package scan

import "repro/internal/fnv64"

// FileSum is one scanned file's identity: its name, declared size, and
// the member checksum (FNV-64a) of its content.
type FileSum struct {
	Name string
	Size int64
	Sum  uint64
}

// FingerprintSums folds every file's (name, size, checksum) into one
// FNV-64a corpus identity, in input order. It is computable from the
// parallel per-file sums, so it is the corpus fingerprint the resident
// server and the distributed scan both report — equal fingerprints mean
// byte-identical manifests.
func FingerprintSums(sums []FileSum) uint64 {
	h := fnv64.Offset
	for _, s := range sums {
		h = fnv64.FoldString(h, s.Name)
		h = fnv64.FoldU64(h, uint64(s.Size))
		h = fnv64.FoldU64(h, s.Sum)
	}
	return h
}

// Checksum is the per-file member-checksum kernel: after a run it holds
// one FileSum per scanned file, in input order. Its sums are the ones the
// pack writer stores and pack verification recomputes — all three fold
// through fnv64.MemberChecksum.
type Checksum struct {
	h    uint64
	cur  FileSum
	sums []FileSum
}

// NewChecksum returns a per-file checksum kernel prototype.
func NewChecksum() *Checksum { return &Checksum{} }

// Fork implements Kernel.
func (c *Checksum) Fork() Kernel { return &Checksum{} }

// Begin implements Kernel.
func (c *Checksum) Begin(src Source) {
	c.h = fnv64.MemberInit
	c.cur = FileSum{Name: src.Name, Size: src.Size}
}

// Block implements Kernel. A run whose kernels include a SumCarrier does
// not call it: the carrier folds the sum in its own loop.
func (c *Checksum) Block(p []byte) { c.h = fnv64.MemberChecksum(c.h, p) }

// End implements Kernel: the completed file is folded into the kernel's
// own accumulation.
func (c *Checksum) End() {
	c.cur.Sum = c.h
	c.sums = append(c.sums, c.cur)
}

// Merge implements Kernel: it appends the other kernel's completed files
// — one chunk for an engine-forked instance, a whole shard's worth for a
// restored one — preserving input order, and drains the other so a
// recycled instance starts empty.
func (c *Checksum) Merge(other Kernel) {
	o := other.(*Checksum)
	c.sums = append(c.sums, o.sums...)
	o.sums = o.sums[:0]
}

// Sums returns the per-file checksums in input order. The slice is owned
// by the kernel.
func (c *Checksum) Sums() []FileSum { return c.sums }

const checksumTag = 'C'

// Snapshot implements StateCodec: the accumulated per-file sums.
func (c *Checksum) Snapshot() ([]byte, error) {
	// tag, count, then per file: name length + name, size, sum.
	size := 1 + 8 + 24*len(c.sums)
	for i := range c.sums {
		size += len(c.sums[i].Name)
	}
	var e StateEncoder
	e.Grow(size)
	e.Tag(checksumTag)
	e.Int(len(c.sums))
	for _, s := range c.sums {
		e.Str(s.Name)
		e.I64(s.Size)
		e.U64(s.Sum)
	}
	return e.Bytes(), nil
}

// Restore implements StateCodec.
func (c *Checksum) Restore(state []byte) error {
	d := NewStateDecoder(state)
	d.Tag(checksumTag)
	n := d.Len(24) // name length, size, sum
	sums := make([]FileSum, 0, n)
	for i := 0; i < n; i++ {
		sums = append(sums, FileSum{Name: d.Str(), Size: d.I64(), Sum: d.U64()})
	}
	if err := d.Finish(); err != nil {
		return err
	}
	c.sums = sums
	return nil
}
