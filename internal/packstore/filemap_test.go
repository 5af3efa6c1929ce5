package packstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/errs"
)

// patterned returns n bytes that differ per seed, so views that alias or
// land in the wrong place compare unequal.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// TestLoadFileSplitsBySize: a file at or under SmallFileLimit is read
// into the slab, a larger one is mapped, and either way the view is the
// file's exact content.
func TestLoadFileSplitsBySize(t *testing.T) {
	dir := t.TempDir()
	var slab FileSlab
	for i, size := range []int{0, 1, 1300, SmallFileLimit - 1, SmallFileLimit, SmallFileLimit + 1, 3 * SmallFileLimit} {
		want := patterned(size, byte(i))
		path := filepath.Join(dir, fmt.Sprintf("f%d", i))
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		data, m, err := LoadFile(path, &slab)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("size %d: loaded content differs from the file", size)
		}
		if small := size <= SmallFileLimit; small != (m == nil) {
			t.Fatalf("size %d: mapping %v, want slab-loaded = %v", size, m != nil, small)
		}
		if m == nil {
			if cap(data) != len(data) {
				t.Fatalf("size %d: slab view capacity %d leaks past its length %d", size, cap(data), len(data))
			}
			continue
		}
		if m.mapped != MmapSupported {
			t.Fatalf("size %d: mapped = %v on a build with MmapSupported = %v", size, m.mapped, MmapSupported)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if m.data != nil {
			t.Fatalf("size %d: closed mapping still hands out data", size)
		}
	}
	if _, _, err := LoadFile(dir, &slab); err == nil {
		t.Fatal("loading a directory succeeded")
	}
	if _, _, err := LoadFile(filepath.Join(dir, "absent"), &slab); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("loading a missing file returned %v, want os.ErrNotExist", err)
	}
}

// TestFileSlabSharesSlabsWithoutAliasing: many small files cost one
// allocation per slab, not per file, and no view overlaps another — the
// one-byte EOF probe each read leaves behind included.
func TestFileSlabSharesSlabsWithoutAliasing(t *testing.T) {
	dir := t.TempDir()
	const files, size = 900, 1300 // 1.17 MB: crosses into a second slab
	paths := make([]string, files)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("f%04d", i))
		if err := os.WriteFile(paths[i], patterned(size, byte(i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var slab FileSlab
	views := make([][]byte, files)
	for i, p := range paths {
		data, _, err := LoadFile(p, &slab)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = data
	}
	for i, v := range views {
		if !bytes.Equal(v, patterned(size, byte(i))) {
			t.Fatalf("file %d's view was overwritten by a later load", i)
		}
	}
	const batch = 800 // 1.04 MB: one slab, just
	var sink []byte
	allocs := testing.AllocsPerRun(3, func() {
		var slab FileSlab
		for _, p := range paths[:batch] {
			sink, _, _ = LoadFile(p, &slab)
		}
	})
	_ = sink
	// The raw-descriptor loader's only per-file allocation is the path's
	// NUL-terminated copy for open(2); the content costs the one slab.
	// (The os.File loader of the fallback build allocates its File.)
	if MmapSupported && allocs > batch+4 {
		t.Fatalf("loading %d small files allocated %.0f times, want one path copy each plus the slab", batch, allocs)
	}
}

// TestFileSlabDetectsSizeDrift: the size a file's stat reported must be
// exactly what reading to EOF finds. A file appended to or truncated
// between the two is ErrCorrupt, and the slab is left as it was.
func TestFileSlabDetectsSizeDrift(t *testing.T) {
	content := patterned(1000, 3)
	var slab FileSlab
	if _, err := slab.read(bytes.NewReader(content), 1000, "steady"); err != nil {
		t.Fatalf("steady file: %v", err)
	}
	used := len(slab.buf)
	for _, stat := range []int64{0, 999, 1001, 5000} {
		_, err := slab.read(bytes.NewReader(content), stat, "drifting")
		if !errors.Is(err, errs.ErrCorrupt) {
			t.Fatalf("stat said %d bytes, content has 1000: got %v, want ErrCorrupt", stat, err)
		}
		if len(slab.buf) != used {
			t.Fatalf("failed read left %d bytes in the slab", len(slab.buf)-used)
		}
	}
	boom := errors.New("disk on fire")
	if _, err := slab.read(failingReader{boom}, 10, "failing"); !errors.Is(err, boom) {
		t.Fatalf("read error came back as %v", err)
	}
}

type failingReader struct{ err error }

func (r failingReader) Read([]byte) (int, error) { return 0, r.err }

// TestOpenFileReadsAndReleases: the raw-descriptor opener delivers a
// file's exact bytes then EOF, fails a missing file the way os.Open does,
// and holds its descriptor until Close — once: a second Close, or a Read
// after it, is os.ErrClosed and never reaches a descriptor number the
// process may have handed to someone else in between.
func TestOpenFileReadsAndReleases(t *testing.T) {
	dir := t.TempDir()
	for _, size := range []int{0, 1, 5000, 300 << 10} {
		want := patterned(size, byte(size))
		path := filepath.Join(dir, fmt.Sprintf("f%d", size))
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("size %d: read %d bytes, err %v", size, len(got), err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("size %d: close: %v", size, err)
		}
		// Whoever opens next gets the number just released; the stale
		// reader must not touch it.
		other, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("second Close = %v, want os.ErrClosed", err)
		}
		if _, err := r.Read(make([]byte, 1)); !errors.Is(err, os.ErrClosed) {
			t.Errorf("Read after Close = %v, want os.ErrClosed", err)
		}
		if _, err := other.Stat(); err != nil {
			t.Errorf("a stale reader's Close reached a reused descriptor: %v", err)
		}
		other.Close()
	}
	if _, err := OpenFile(filepath.Join(dir, "absent")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
}
