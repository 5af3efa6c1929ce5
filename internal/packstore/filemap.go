package packstore

import (
	"fmt"
	"io"
	"os"
	"sync"

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

// slab is one shared slab's storage. A pointer to an array, so the pool
// holds it without boxing a slice header on every Put.
type slab = [fileSlabBytes]byte

// slabPool recycles slabs between imports. A fresh slab costs a 1 MiB
// zeroing that the file read overwrites at once, and an import of a few
// thousand small files draws dozens; recycled, a repeated import draws
// them from the previous one's Release. The pool drops what two garbage
// collections find unused, so an idle process gives the memory back.
var slabPool = sync.Pool{New: func() any { return new(slab) }}

// FileSlab is one loader's state. It carves small files' contents out of
// shared 1 MiB slabs, the way scan.Int64Arena carves result rows: one slab
// per megabyte of content instead of one allocation per file, and the
// slabs come from a package-level pool. On linux it also keeps the
// directory its last file was opened in, so the next file there is opened
// relative to it by name alone.
//
// Views handed out stay valid until Release, which returns every slab to
// the pool and closes the directory: a later import may then overwrite
// them, so whoever owns the views calls Release only once they are dead
// (vfs.ImportDirMappedCtx's closer). A FileSlab that is never released
// leaves its slabs to the garbage collector and its directory open. The
// zero value is ready to use; a FileSlab is not safe for concurrent use.
type FileSlab struct {
	buf   []byte  // the current slab: its filled prefix, capacity all of it
	slabs []*slab // every slab drawn since the last Release
	dir   dirCache
}

// read appends exactly size bytes of r, the file dir+name, to the slab
// and returns them as a capacity-clamped view. size, at most
// SmallFileLimit, is what the file's stat reported; the read runs to EOF
// with room for one byte more, so content that is shorter or longer than
// its stat — a file truncated or appended to in between — is ErrCorrupt,
// never a silently short or stale view. The path is joined only for an
// error.
func (s *FileSlab) read(r io.Reader, size int64, dir, name string) ([]byte, error) {
	need := int(size) + 1 // the EOF probe's byte
	if cap(s.buf)-len(s.buf) < need {
		p := slabPool.Get().(*slab)
		s.slabs = append(s.slabs, p)
		s.buf = p[:0]
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
			return nil, fmt.Errorf("packstore: read %s%s: %w", dir, name, err)
		}
	}
	switch {
	case int64(n) > size:
		return nil, errs.Corrupt("packstore: %s%s grew past the %d bytes its stat reported while being read", dir, name, size)
	case int64(n) < size:
		return nil, errs.Corrupt("packstore: %s%s has %d bytes, its stat reported %d", dir, name, n, size)
	}
	s.buf = s.buf[:off+n]
	return dst[:n:n], nil
}

// Release hands every slab back to the pool and closes the directory the
// slab kept open, leaving the zero FileSlab. Every view read into it is
// dead from here on — under the scandebug tag each released slab is
// overwritten with 0xDB at once, as the scan engine poisons its recycled
// blocks. A second Release finds nothing to hand back, so no slab ever
// reaches the pool twice.
func (s *FileSlab) Release() {
	for _, p := range s.slabs {
		poison(p[:])
		slabPool.Put(p)
	}
	s.dir.close()
	*s = FileSlab{}
}

// LoadFile opens the regular file dir+name (name slash-separated, as
// OpenFile takes it) once and delivers its complete content by the
// cheaper of two routes, chosen from the size its stat reports: at or
// under SmallFileLimit it is read to EOF into slab (the returned mapping
// is nil and the view is valid until slab.Release), above it the file is
// mapped (the view is the mapping's bytes, valid until the caller closes
// the mapping). Either way the file's descriptor is released before
// LoadFile returns.
func LoadFile(dir, name string, slab *FileSlab) ([]byte, *FileMapping, error) {
	return loadFile(dir, name, slab)
}

// OpenFile opens the regular file dir+name (name slash-separated) for one
// sequential read, at the lowest per-open cost the platform offers: on
// unix a raw descriptor with no *os.File around it — no finalizer, no
// poller registration, no descriptor-flag queries — and *os.File
// elsewhere and behind packstore_nommap. The reader holds a descriptor
// that only its Close releases; dropping it unclosed leaks the descriptor
// for the life of the process. A failed open is an *os.PathError, so
// errors.Is finds os.ErrNotExist and friends as it does behind os.Open.
func OpenFile(dir, name string) (io.ReadCloser, error) {
	return openFile(dir, name)
}

// LstatSize is the size os.Lstat reports for dir+name (a symlink's own),
// and the same *os.PathError when it fails, without the FileInfo: on unix
// one lstat of the path joined in a stack buffer, so an import that sizes
// thousands of files allocates nothing per file for it; os.Lstat
// elsewhere and behind packstore_nommap.
func LstatSize(dir, name string) (int64, error) {
	return lstatSize(dir, name)
}
