package packstore

import (
	"fmt"
	"io"
	"os"
)

// Reader is a zero-copy view over a finalised pack: the whole shard is
// memory-mapped (or, on platforms without mmap and under the
// `packstore_nommap` build tag, materialised once through the portable
// ReaderAt fallback) and every member's payload is a subslice of that one
// mapping. Opening a member costs nothing and reading one costs no copy —
// kernels scan straight out of the page cache, which is the logical
// endpoint of reshaping: the pack removed the per-file opens, the mapping
// removes the per-block copies.
//
// Lifetime rules (the borrowed-slice contract):
//
//   - Slices returned by MemberBytes alias the mapping and are valid only
//     until Close. Retaining one past Close is a use-after-unmap fault on
//     the mmap path and silent garbage on none — callers that need bytes
//     beyond the reader's lifetime must copy.
//   - The mapping is read-only; writing through a returned slice faults.
//   - Close is idempotent and must be called exactly when every borrowed
//     slice is dead.
type Reader struct {
	pack   *Pack
	data   []byte
	mapped bool
}

// MmapSupported reports whether this build maps packs with the OS mmap
// path (false under the portable fallback build tag, where Readers
// materialise shards on the heap instead). Tests branch on it.
const MmapSupported = mmapSupported

// OpenReader opens a finalised pack for zero-copy member access. The
// footer and index are validated exactly as Open does; the record region
// is then mapped (or materialised under the fallback).
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("packstore: open reader: %w", err)
	}
	p, err := openStrict(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	data, mapped, err := mapFile(f, p.size)
	if err != nil {
		p.Close()
		return nil, fmt.Errorf("packstore: map %s: %w", path, err)
	}
	r := &Reader{pack: p, data: data, mapped: mapped}
	// Serve the pack's ReadAt traffic (SectionReader, Verify) from the
	// mapping too: one backing for every access path, no pread syscalls.
	p.ra = sliceReaderAt(data)
	return r, nil
}

// Pack returns the underlying pack (members, lookups, verification). Its
// SectionReaders read from the mapping and share the Reader's lifetime.
func (r *Reader) Pack() *Pack { return r.pack }

// MemberBytes returns the i-th member's payload (members sorted by name,
// matching Pack.Members) as a borrowed zero-copy slice, valid until
// Close. The slice is capacity-clamped so an append cannot spill into the
// neighbouring member's bytes.
func (r *Reader) MemberBytes(i int) []byte {
	m := r.pack.members[i]
	return r.data[m.Offset : m.Offset+m.Size : m.Offset+m.Size]
}

// AdviseSequential hints the OS that the mapping will be read front to
// back (madvise(MADV_SEQUENTIAL) on linux mappings, a no-op elsewhere),
// which is how full-shard fused scans walk it. Best effort:
// an unsupported advice is not an error worth failing a scan for, so
// callers may ignore the return.
func (r *Reader) AdviseSequential() error {
	if !r.mapped {
		return nil
	}
	return adviseSequential(r.data)
}

// Close unmaps the shard and releases the file handle. Every slice
// handed out by MemberBytes is invalid afterwards. Idempotent.
func (r *Reader) Close() error {
	if r.data == nil && r.pack == nil {
		return nil
	}
	data, mapped := r.data, r.mapped
	r.data = nil
	var err error
	if mapped {
		err = unmapFile(data)
	}
	if r.pack != nil {
		// Detach the pack's view of the dead mapping before closing it, so
		// a straggling SectionReader errors instead of faulting.
		r.pack.ra = closedReaderAt{r.pack.path}
		if cerr := r.pack.Close(); cerr != nil && err == nil {
			err = cerr
		}
		r.pack = nil
	}
	return err
}

// sliceReaderAt adapts the mapped bytes to io.ReaderAt so the Pack's
// SectionReader/Verify machinery reads from the mapping.
type sliceReaderAt []byte

func (s sliceReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(s)) {
		return 0, fmt.Errorf("packstore: read at %d outside mapping of %d bytes", off, len(s))
	}
	n := copy(p, s[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// closedReaderAt is what a closed Reader's pack reads through: every
// read fails loudly instead of touching a dead mapping.
type closedReaderAt struct{ path string }

func (c closedReaderAt) ReadAt([]byte, int64) (int, error) {
	return 0, fmt.Errorf("packstore: %s: read after Reader.Close", c.path)
}

// readFileAt materialises size bytes of f on the heap — the portable
// fallback's "mapping", also used when a real mmap fails.
func readFileAt(f *os.File, size int64) ([]byte, error) {
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	return data, nil
}
