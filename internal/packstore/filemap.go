package packstore

import (
	"fmt"
	"io"
	"os"

	"repro/internal/errs"
)

// FileMapping is one regular file's complete content as a read-only
// borrowed view — memory-mapped where the platform supports it, and
// heap-materialised behind the packstore_nommap tag or when the mapping
// itself fails (same degradation contract as the pack Reader). The file
// descriptor is released before LoadFile returns: a mapping needs no fd,
// and the fallback has already read everything.
//
// This is the unpacked-corpus sibling of the pack Reader's MemberBytes:
// vfs.ImportDirMappedCtx holds one FileMapping per corpus file too large
// for a slab, so -dir corpora take the same zero-copy scan path as
// mapped packs.
type FileMapping struct {
	path   string
	data   []byte
	mapped bool
	closed bool
}

// mapOpened maps size bytes of the already opened and stat-checked
// regular file f, sized by that stat.
func mapOpened(f *os.File, path string, size int64) (*FileMapping, error) {
	data, mapped, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("packstore: map %s: %w", path, err)
	}
	return &FileMapping{path: path, data: data, mapped: mapped}, nil
}

func errNotRegular(path string) error {
	return fmt.Errorf("packstore: load %s: not a regular file", path)
}

// AdviseSequential hints read-ahead for a front-to-back scan of the
// mapping. Best effort: a no-op on the heap fallback, and errors are
// advisory.
func (m *FileMapping) AdviseSequential() error {
	if m.closed || !m.mapped {
		return nil
	}
	return adviseSequential(m.data)
}

// Close releases the mapping. Views obtained from Data are invalid
// afterwards. Close is idempotent.
func (m *FileMapping) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	data := m.data
	m.data = nil
	if !m.mapped {
		return nil
	}
	if err := unmapFile(data); err != nil {
		return fmt.Errorf("packstore: unmap %s: %w", m.path, err)
	}
	return nil
}

// SmallFileLimit is the size at or under which LoadFile reads a file into
// a shared heap slab instead of mapping it. A mapping's cost is fixed per
// file — an mmap and a munmap that each take the process's address-space
// lock, a VMA, at least one page fault — and at corpus-member sizes that
// fixed cost exceeds copying the bytes once; from a few dozen pages up the
// copy dominates and the mapping's zero copies win. The split is by each
// file's own size, so a mixed corpus gets both.
const SmallFileLimit = 64 << 10

// fileSlabBytes is the capacity of one shared slab: 16 limit-sized files,
// so the tail a slab strands when the next file does not fit is at most
// one sixteenth of it.
const fileSlabBytes = 1 << 20

// FileSlab carves small files' contents out of shared heap slabs, the way
// scan.Int64Arena carves result rows: one allocation per megabyte of
// content instead of one per file. Views handed out stay valid for as
// long as anything references them (slabs are never reused; a full slab
// is abandoned to the GC once its views die). The zero value is ready to
// use; a FileSlab is not safe for concurrent use.
type FileSlab struct {
	buf []byte
}

// read appends exactly size bytes of r to the slab and returns them as a
// capacity-clamped view. size is what the file's stat reported; the read
// runs to EOF with room for one byte more, so content that is shorter or
// longer than its stat — a file truncated or appended to in between — is
// ErrCorrupt, never a silently short or stale view.
func (s *FileSlab) read(r io.Reader, size int64, path string) ([]byte, error) {
	need := int(size) + 1 // the EOF probe's byte
	if cap(s.buf)-len(s.buf) < need {
		s.buf = make([]byte, 0, max(fileSlabBytes, need))
	}
	off := len(s.buf)
	dst := s.buf[off : off+need]
	n := 0
	for n < need {
		m, err := r.Read(dst[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("packstore: read %s: %w", path, err)
		}
	}
	switch {
	case int64(n) > size:
		return nil, errs.Corrupt("packstore: %s grew past the %d bytes its stat reported while being read", path, size)
	case int64(n) < size:
		return nil, errs.Corrupt("packstore: %s has %d bytes, its stat reported %d", path, n, size)
	}
	s.buf = s.buf[:off+n]
	return dst[:n:n], nil
}

// LoadFile opens the regular file at path once and delivers its complete
// content by the cheaper of two routes, chosen from the size its stat
// reports: at or under SmallFileLimit it is read to EOF into slab (the
// returned mapping is nil and the view lives on the heap), above it the
// file is mapped (the view is the mapping's bytes, valid until the
// caller closes the mapping). Either way the descriptor is released
// before LoadFile returns.
func LoadFile(path string, slab *FileSlab) ([]byte, *FileMapping, error) {
	return loadFile(path, slab)
}

// OpenFile opens the regular file at path for one sequential read, at the
// lowest per-open cost the platform offers: on unix a raw descriptor with
// no *os.File around it — no finalizer, no poller registration, no
// descriptor-flag queries — and *os.File elsewhere and behind
// packstore_nommap. The reader holds a descriptor that only its Close
// releases; dropping it unclosed leaks the descriptor for the life of the
// process. A failed open is an *os.PathError, so errors.Is finds
// os.ErrNotExist and friends as it does behind os.Open.
func OpenFile(path string) (io.ReadCloser, error) {
	return openFile(path)
}

// LstatSize is the size os.Lstat reports for path (a symlink's own), and
// the same *os.PathError when it fails, without the FileInfo: on unix one
// lstat into a stack buffer, so an import that sizes thousands of files
// allocates nothing per file for it; os.Lstat elsewhere and behind
// packstore_nommap.
func LstatSize(path string) (int64, error) {
	return lstatSize(path)
}
