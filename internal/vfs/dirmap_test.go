package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/scan"
)

// dirTestTree writes a small on-disk corpus with nested directories, an
// empty file and some non-ASCII content, returning its root.
func dirTestTree(t *testing.T, files int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < files; i++ {
		rel := filepath.Join("sub", "deep")
		if i%3 == 0 {
			rel = "."
		}
		if err := os.MkdirAll(filepath.Join(dir, rel), 0o755); err != nil {
			t.Fatal(err)
		}
		content := strings.Repeat("the quick brown fox. ", i*7+1) + "héllo\n"
		if i == files/2 {
			content = "" // one empty file: mmap of length 0 must degrade cleanly
		}
		name := filepath.Join(dir, rel, "f"+string(rune('a'+i%26))+strings.Repeat("x", i%4)+".txt")
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// mixedSizeTree writes a corpus that straddles the import's delivery
// split: files just under, at and over packstore.SmallFileLimit (slab,
// slab, mapped), an empty file, and small files on either side so a
// mapped file sits between slab neighbours in walk order.
func mixedSizeTree(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	line := []byte("the quick brown fox — héllo. they said it's fine!\n")
	for i, size := range []int{700, packstore.SmallFileLimit - 1, 0, packstore.SmallFileLimit, 1300, packstore.SmallFileLimit + 1, 3 * packstore.SmallFileLimit, 900} {
		content := bytes.Repeat(line, size/len(line)+1)[:size]
		sub := filepath.Join(dir, fmt.Sprintf("d%d", i%3))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, fmt.Sprintf("f%d-%d.txt", i, size)), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// testTrees are the corpora every mapped-import equivalence test runs
// over: many tiny files in nested directories, and the mixed-size tree.
func testTrees(t *testing.T, files int) map[string]string {
	return map[string]string{"small": dirTestTree(t, files), "mixed": mixedSizeTree(t)}
}

// TestImportsShareOneWalk: both directory imports take their corpus from
// the one walker, so they list the same regular files under the same
// relative, slash-separated names with the same sizes — nested
// directories, an empty file and a file past the slab limit included.
func TestImportsShareOneWalk(t *testing.T) {
	dir := t.TempDir()
	want := map[string]int64{
		"a.txt":            3,
		"empty.txt":        0,
		"sub/b.txt":        5,
		"sub/deep/big.bin": packstore.SmallFileLimit + 1,
		"sub/deep/c.txt":   7,
		"z/last.txt":       1,
	}
	for name, size := range want {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, bytes.Repeat([]byte("x"), int(size)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub", "hollow"), 0o755); err != nil {
		t.Fatal(err)
	}
	plain, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	for which, fs := range map[string]*FS{"ImportDir": plain, "ImportDirMappedCtx": mapped} {
		got := map[string]int64{}
		for _, f := range fs.List() {
			got[f.Name] = f.Size
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s lists %v, want %v", which, got, want)
		}
	}
}

// walkDirReference is the walk walkFiles replaced: filepath.WalkDir, with
// each name recovered from its path.
func walkDirReference(dir string) ([]dirEntry, error) {
	var entries []dirEntry
	err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		entries = append(entries, dirEntry{filepath.ToSlash(rel), path})
		return nil
	})
	return entries, err
}

// TestWalkFilesMatchesWalkDir pins the walk to filepath.WalkDir's order,
// names and paths on a tree where walk order and a flat sort of the names
// disagree ('-' and '.' sort before '/', so "a-b" and "a.b" precede "a/x"
// in a sort but follow it in the walk), with a nested level, empty
// directories and a symlink to a directory, which is listed and not
// followed. An unreadable subdirectory is an error, as it is for WalkDir.
func TestWalkFilesMatchesWalkDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a/x", "a/b/c/deep", "a-b", "a.b", "a0", "z/last"} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, empty := range []string{"empty", "z/hollow"} {
		if err := os.MkdirAll(filepath.Join(dir, empty), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Symlink(filepath.Join(dir, "a"), filepath.Join(dir, "link")); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	got, err := walkFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := walkDirReference(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walkFiles lists\n%v\nfilepath.WalkDir\n%v", got, want)
	}
	var names []string
	for _, e := range got {
		names = append(names, e.name)
	}
	if want := []string{"a/b/c/deep", "a/x", "a-b", "a.b", "a0", "link", "z/last"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("walk order %q, want %q", names, want)
	}

	if _, err := walkFiles(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("walk of a missing root: %v, want os.ErrNotExist", err)
	}
	t.Run("unreadable subdirectory", func(t *testing.T) {
		locked := filepath.Join(dir, "z")
		if err := os.Chmod(locked, 0); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(locked, 0o755)
		if _, err := os.ReadDir(locked); err == nil {
			t.Skip("permission bits do not stop this user reading a directory")
		}
		if _, err := walkFiles(dir); !errors.Is(err, os.ErrPermission) {
			t.Fatalf("walk over an unreadable directory: %v, want os.ErrPermission", err)
		}
		if _, err := walkDirReference(dir); !errors.Is(err, os.ErrPermission) {
			t.Fatalf("reference walk over an unreadable directory: %v, want os.ErrPermission", err)
		}
	})
}

// TestImportDirMappedMatchesImportDir: the mapped import exposes the same
// corpus as the streaming import — same names, sizes and bytes — plus a
// raw view per file.
func TestImportDirMappedMatchesImportDir(t *testing.T) {
	for name, dir := range testTrees(t, 17) {
		t.Run(name, func(t *testing.T) { testImportDirMappedMatchesImportDir(t, dir) })
	}
}

func testImportDirMappedMatchesImportDir(t *testing.T, dir string) {
	plain, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	if mapped.Len() != plain.Len() {
		t.Fatalf("mapped import has %d files, plain has %d", mapped.Len(), plain.Len())
	}
	for _, pf := range plain.List() {
		mf, err := mapped.Get(pf.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !mf.hasRaw {
			t.Fatalf("mapped file %q has no raw view", mf.Name)
		}
		if pf.hasRaw {
			t.Fatalf("plain import file %q unexpectedly has a raw view", pf.Name)
		}
		if mf.Size != pf.Size {
			t.Fatalf("file %q size differs: plain %d mapped %d", pf.Name, pf.Size, mf.Size)
		}
		want, err := pf.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := mf.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, raw) {
			t.Fatalf("file %q raw view differs from on-disk content", pf.Name)
		}
		// The mapped import's streaming path reads through the same
		// mapping, so it must agree byte for byte too.
		streamed, err := mf.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, streamed) {
			t.Fatalf("file %q streamed content differs under mapped import", pf.Name)
		}
	}
}

// TestMappedDirScanBitIdenticalToStreamingScan is the acceptance
// differential: a fused scan over the mapped dir import is bit-identical
// to the same scan over the streaming import, at workers 1, 2 and 8 down
// to 3-byte blocks.
func TestMappedDirScanBitIdenticalToStreamingScan(t *testing.T) {
	for name, dir := range testTrees(t, 23) {
		t.Run(name, func(t *testing.T) { testMappedDirScanBitIdenticalToStreamingScan(t, dir) })
	}
}

func testMappedDirScanBitIdenticalToStreamingScan(t *testing.T, dir string) {
	plain, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	for _, workers := range []int{1, 2, 8} {
		for _, block := range []int{3, 4096} {
			opts := scan.Options{Workers: workers, BlockSize: block}
			ck := scan.NewChecksum()
			if err := scan.Run(context.Background(), Sources(plain.List()), opts, ck); err != nil {
				t.Fatalf("workers=%d block=%d streaming scan: %v", workers, block, err)
			}
			mk := scan.NewChecksum()
			if err := scan.Run(context.Background(), Sources(mapped.List()), opts, mk); err != nil {
				t.Fatalf("workers=%d block=%d mapped scan: %v", workers, block, err)
			}
			a, b := ck.Sums(), mk.Sums()
			if len(a) != len(b) {
				t.Fatalf("workers=%d block=%d: %d sums vs %d", workers, block, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("workers=%d block=%d file %d: streaming %+v != mapped %+v", workers, block, i, a[i], b[i])
				}
			}
		}
	}
}

// TestImportDirMappedScanOpensNoFiles proves the delivery-parity claim:
// a scan over the mapped import never touches the streaming Open path —
// every file arrives through its raw view.
func TestImportDirMappedScanOpensNoFiles(t *testing.T) {
	dir := dirTestTree(t, 12)
	mapped, closer, err := ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// Wrap every source's streaming opener with a counter; the raw path
	// must win so the counter stays at zero.
	opens := 0
	srcs := Sources(mapped.List())
	for i := range srcs {
		orig := srcs[i].Content
		srcs[i].Content = scan.OpenFunc(func() (io.Reader, error) {
			opens++
			return orig.Open()
		})
	}
	if err := scan.Run(context.Background(), srcs, scan.Options{Workers: 4}, scan.NewChecksum()); err != nil {
		t.Fatal(err)
	}
	if opens != 0 {
		t.Fatalf("mapped dir scan opened %d streaming readers, want 0", opens)
	}
}

// TestImportDirMappedCancelled: a pre-cancelled context aborts the import
// with the typed error.
func TestImportDirMappedCancelled(t *testing.T) {
	dir := dirTestTree(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ImportDirMappedCtx(ctx, dir); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled mapped dir import returned %v, want ErrCancelled", err)
	}
}

// countdownCtx reports cancellation from its n-th Err call on: a
// deterministic way to cancel an import between two particular files.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// liveMappings counts this process's memory mappings of files under dir.
func liveMappings(t *testing.T, dir string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps to count mappings in: %v", err)
	}
	return strings.Count(string(maps), dir)
}

// TestImportDirMappedCancelMidImportReleasesMappings: an import cancelled
// after it has already mapped large files must unmap them before it
// returns — the caller gets no closer to do it with.
func TestImportDirMappedCancelMidImportReleasesMappings(t *testing.T) {
	dir := t.TempDir()
	big := bytes.Repeat([]byte("x"), 2*packstore.SmallFileLimit)
	const files = 6
	for i := 0; i < files; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("big%d", i)), big, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A completed import holds one mapping per large file (none on the
	// no-mmap build) and its closer releases them all.
	_, closer, err := ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := liveMappings(t, dir); got != files && got != 0 {
		t.Fatalf("completed import holds %d mappings of %d large files", got, files)
	} else if got == 0 && packstore.MmapSupported {
		t.Fatalf("completed import of %d large files holds no mappings on an mmap build", files)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	if got := liveMappings(t, dir); got != 0 {
		t.Fatalf("%d mappings survive the import's closer", got)
	}

	// Cancel a few files in (the fan-out spends one check of its own):
	// several files are mapped by then, the rest never will be.
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(4)
	fs, closer, err := ImportDirMappedCtx(ctx, dir)
	if !errors.Is(err, errs.ErrCancelled) || fs != nil || closer != nil {
		t.Fatalf("mid-import cancellation returned (%v, %v, %v), want a bare ErrCancelled", fs, closer, err)
	}
	if got := liveMappings(t, dir); got != 0 {
		t.Fatalf("cancelled import leaked %d mappings", got)
	}
}

// TestImportDirMappedSizeDriftIsCorrupt: a small file whose content is
// not the size its fstat reported fails the import with ErrCorrupt
// instead of yielding a short or stale view. procfs supplies such a file
// deterministically — regular, stat size 0, non-empty when read — which
// is exactly what a file appended to between the fstat and the read
// looks like. (Truncation, the other direction, is pinned on the reader
// itself in packstore's TestFileSlabDetectsSizeDrift.)
func TestImportDirMappedSizeDriftIsCorrupt(t *testing.T) {
	const grower = "/proc/self/cmdline"
	if info, err := os.Stat(grower); err != nil || !info.Mode().IsRegular() || info.Size() != 0 {
		t.Skipf("%s is not a zero-stat regular file here", grower)
	}
	dir := dirTestTree(t, 4)
	if err := os.Symlink(grower, filepath.Join(dir, "grower.txt")); err != nil {
		t.Skipf("cannot symlink: %v", err)
	}
	_, _, err := ImportDirMappedCtx(context.Background(), dir)
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Fatalf("import over a file that outgrew its stat returned %v, want ErrCorrupt", err)
	}
}

// TestImportDirMappedCloseInvalidatesStreaming: after the closer runs,
// streaming reads fail loudly instead of touching a dead mapping — on
// both the mmap and fallback builds.
func TestImportDirMappedCloseInvalidatesStreaming(t *testing.T) {
	dir := dirTestTree(t, 6)
	mapped, closer, err := ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	files := mapped.List()
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	var nonEmpty *File
	for i := range files {
		if files[i].Size > 0 {
			nonEmpty = &files[i]
			break
		}
	}
	if nonEmpty == nil {
		t.Fatal("corpus has no non-empty file")
	}
	if _, err := nonEmpty.ReadAll(); err == nil || !strings.Contains(err.Error(), "after mapped dir import close") {
		t.Fatalf("read after close returned %v, want loud close error", err)
	}
}
