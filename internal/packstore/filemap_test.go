package packstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
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
	defer slab.Release()
	for i, size := range []int{0, 1, 1300, SmallFileLimit - 1, SmallFileLimit, SmallFileLimit + 1, 3 * SmallFileLimit} {
		want := patterned(size, byte(i))
		name := fmt.Sprintf("f%d", i)
		if err := os.WriteFile(filepath.Join(dir, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
		data, m, err := LoadFile(dir+"/", name, &slab)
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
	if _, _, err := LoadFile(filepath.Dir(dir)+"/", filepath.Base(dir), &slab); err == nil {
		t.Fatal("loading a directory succeeded")
	}
	if _, _, err := LoadFile(dir+"/", "absent", &slab); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("loading a missing file returned %v, want os.ErrNotExist", err)
	}
}

// TestFileSlabSharesSlabsWithoutAliasing: many small files cost one
// allocation per slab, not per file, and no view overlaps another — the
// one-byte EOF probe each read leaves behind included.
func TestFileSlabSharesSlabsWithoutAliasing(t *testing.T) {
	dir := t.TempDir()
	const files, size = 900, 1300 // 1.17 MB: crosses into a second slab
	root, names := dir+"/", make([]string, files)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
		if err := os.WriteFile(root+names[i], patterned(size, byte(i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var slab FileSlab
	defer slab.Release()
	views := make([][]byte, files)
	for i, name := range names {
		data, _, err := LoadFile(root, name, &slab)
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
	const batch = 800 // 1.04 MB: two slabs, just
	var sink []byte
	allocs := testing.AllocsPerRun(3, func() {
		var slab FileSlab
		for _, name := range names[:batch] {
			sink, _, _ = LoadFile(root, name, &slab)
		}
		slab.Release()
	})
	_ = sink
	// The raw-descriptor loader opens each file by name relative to its
	// directory, so nothing is allocated per file: what is left is the
	// directory's one open(2) path copy and the slab list, and the slabs
	// come back from the previous run's Release (the race detector's pool
	// drops some, hence the slack). The os.File loader of the fallback
	// builds allocates its File per file.
	if MmapSupported && allocs > 8 {
		t.Fatalf("loading %d small files allocated %.0f times, want a constant few", batch, allocs)
	}
}

// TestLoadFileFollowsItsDirectory: a slab keeps the directory of the last
// file it loaded open, keyed by the root and the name's directory, and
// opens the next file there by name; loads that alternate between
// directories, and between two roots that hold the same names, a name in
// a directory that is not there and a name with a trailing slash each get
// what open(2) on the whole path would give.
func TestLoadFileFollowsItsDirectory(t *testing.T) {
	roots := []string{t.TempDir() + "/", t.TempDir() + "/"}
	rels := []string{"a/x", "b/x", "a/y", "a/z", "b/deep/x", "top"}
	content := func(r, i int) []byte { return patterned(100+i, byte(10*r+i)) }
	for r, root := range roots {
		for i, rel := range rels {
			path := root + rel
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, content(r, i), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var slab FileSlab
	defer slab.Release()
	for round := 0; round < 2; round++ {
		for i, rel := range rels {
			for r, root := range roots {
				data, _, err := LoadFile(root, rel, &slab)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, content(r, i)) {
					t.Fatalf("round %d: %s%s loaded another file's bytes", round, root, rel)
				}
			}
		}
	}
	for _, rel := range []string{"a/absent", "nowhere/x"} {
		if _, _, err := LoadFile(roots[0], rel, &slab); !errors.Is(err, os.ErrNotExist) || !strings.Contains(err.Error(), roots[0]+rel) {
			t.Fatalf("missing %s: %v, want os.ErrNotExist naming the path", rel, err)
		}
	}
	if _, _, err := LoadFile(roots[0], rels[0]+"/", &slab); err == nil {
		t.Fatal("a file path with a trailing slash loaded")
	}
}

// TestFileSlabDetectsSizeDrift: the size a file's stat reported must be
// exactly what reading to EOF finds. A file appended to or truncated
// between the two is ErrCorrupt, and the slab is left as it was.
func TestFileSlabDetectsSizeDrift(t *testing.T) {
	content := patterned(1000, 3)
	var slab FileSlab
	if _, err := slab.read(bytes.NewReader(content), 1000, "", "steady"); err != nil {
		t.Fatalf("steady file: %v", err)
	}
	used := len(slab.buf)
	for _, stat := range []int64{0, 999, 1001, 5000} {
		_, err := slab.read(bytes.NewReader(content), stat, "", "drifting")
		if !errors.Is(err, errs.ErrCorrupt) {
			t.Fatalf("stat said %d bytes, content has 1000: got %v, want ErrCorrupt", stat, err)
		}
		if len(slab.buf) != used {
			t.Fatalf("failed read left %d bytes in the slab", len(slab.buf)-used)
		}
	}
	boom := errors.New("disk on fire")
	if _, err := slab.read(failingReader{boom}, 10, "", "failing"); !errors.Is(err, boom) {
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
		name := fmt.Sprintf("f%d", size)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(dir+string(filepath.Separator), name)
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
	if _, err := OpenFile(dir+string(filepath.Separator), "absent"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// TestFileSlabReleasesOnce: Release hands each slab it drew back to the
// pool exactly once and leaves the zero FileSlab, so a second Release —
// a closer run twice — hands back nothing. On one P with the collector
// off the pool keeps everything it is given, in order; under the race
// detector it drops a quarter of the puts at random, so there a slab is
// seen at most once.
func TestFileSlabReleasesOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := t.TempDir()
	var fs FileSlab
	for i := 0; i < 3*16; i++ { // three slabs of limit-sized files
		name := fmt.Sprintf("f%02d", i)
		if err := os.WriteFile(filepath.Join(dir, name), patterned(SmallFileLimit-100, byte(i)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadFile(dir+"/", name, &fs); err != nil {
			t.Fatal(err)
		}
	}
	drawn := map[*slab]int{}
	for _, p := range fs.slabs {
		drawn[p] = 0
	}
	if len(drawn) != 3 {
		t.Fatalf("48 files of %d bytes drew %d slabs, want 3", SmallFileLimit-100, len(drawn))
	}
	fs.Release()
	if !reflect.ValueOf(fs).IsZero() {
		t.Fatal("a released FileSlab still holds state")
	}
	fs.Release()
	// Earlier tests may have left slabs in the pool ahead of these.
	for i := 0; i < 16; i++ {
		p := slabPool.Get().(*slab)
		if n, ok := drawn[p]; ok {
			drawn[p] = n + 1
		}
	}
	for p, n := range drawn {
		if n > 1 || (n == 0 && !raceEnabled) {
			t.Errorf("slab %p came back from the pool %d times, want once", p, n)
		}
	}
}
