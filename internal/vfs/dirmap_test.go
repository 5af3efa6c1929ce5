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
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/errs"
	"repro/internal/packstore"
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
		entries = append(entries, dirEntry{name: filepath.ToSlash(rel)})
		return nil
	})
	return entries, err
}

// walkInOrder runs walkFiles and puts what it lists in walk order
// (walkBefore), which is the order filepath.WalkDir visits.
func walkInOrder(dir string) ([]dirEntry, error) {
	var entries []dirEntry
	err := walkFiles(dir, func(chunk []dirEntry) error {
		entries = append(entries, chunk...)
		return nil
	})
	slices.SortFunc(entries, func(a, b dirEntry) int {
		if walkBefore(a.name, b.name) {
			return -1
		}
		if walkBefore(b.name, a.name) {
			return 1
		}
		return 0
	})
	return entries, err
}

// TestWalkFilesMatchesWalkDir pins the walk, put in walkBefore's order, to
// filepath.WalkDir's order and names on a tree where walk order
// and a flat sort of the names disagree ('-' and '.' sort before '/', so "a-b" and "a.b" precede "a/x"
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
	got, err := walkInOrder(dir)
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

	if _, err := walkInOrder(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
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
		if _, err := walkInOrder(dir); !errors.Is(err, os.ErrPermission) {
			t.Fatalf("walk over an unreadable directory: %v, want os.ErrPermission", err)
		}
		if _, err := walkDirReference(dir); !errors.Is(err, os.ErrPermission) {
			t.Fatalf("reference walk over an unreadable directory: %v, want os.ErrPermission", err)
		}
	})
}

// TestImportsListNameOrder: on a two-level tree whose walk order is not
// name order ("a/b" is walked before "a-c" and sorts after it), both
// directory imports give the same FS, in name order, with each file's
// bytes. Under packstore_nommap (make test-nommap) the portable walk,
// which lists in walk order, runs it.
func TestImportsListNameOrder(t *testing.T) {
	dir := t.TempDir()
	want := []string{"a-c", "a.d", "a/b", "a/b0/c", "a/b0/d", "a0", "b/a-c", "b/a/b"}
	for _, name := range want {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer := importMapped(t, dir)
	defer closer.Close()
	for which, fs := range map[string]*FS{"ImportDir": plain, "ImportDirMappedCtx": mapped} {
		if got := fsNames(fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s lists %q, want %q", which, got, want)
		}
		for _, f := range fs.List() {
			if data, err := f.ReadAll(); err != nil || string(data) != f.Name {
				t.Fatalf("%s: %s reads %q, %v", which, f.Name, data, err)
			}
		}
	}
}

// TestImportDirMappedCancelMidWalkReleasesAll: an import cancelled while
// the walk is still listing — loaders have mapped files and filled slabs,
// the walker has chunks left — hands back every mapping, slab and
// descriptor and leaves no goroutine behind. At GOMAXPROCS 2 each of the
// two loaders holds a chunk (the first starts with the large files: the
// root's files come before its subdirectory's), two more wait and the
// walker holds a fifth, so a cancellation before any loader has loaded a
// chunk's worth of files lands before the walk's sixth chunk, of nine.
func TestImportDirMappedCancelMidWalkReleasesAll(t *testing.T) {
	dir := t.TempDir()
	big := bytes.Repeat([]byte("x"), packstore.SmallFileLimit+1)
	for i := 0; i < 8; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("big%d", i)), big, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sub := filepath.Join(dir, "s")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8*importChunkFiles; i++ {
		if err := os.WriteFile(filepath.Join(sub, fmt.Sprintf("f%04d", i)), []byte("small"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	base := runtime.NumGoroutine()
	_, closer := importMapped(t, dir) // warm: the slab pool and the page cache
	closer.Close()
	fds, goroutines := openFDs(t), settledGoroutines(base)

	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(importChunkFiles / 2)
	fs, closer, err := ImportDirMappedCtx(ctx, dir)
	if !errors.Is(err, errs.ErrCancelled) || fs != nil || closer != nil {
		t.Fatalf("mid-walk cancellation returned (%v, %v, %v), want a bare ErrCancelled", fs, closer, err)
	}
	if got := liveMappings(t, dir); got != 0 {
		t.Fatalf("cancelled import leaked %d mappings", got)
	}
	if got := openFDs(t); got != fds {
		t.Fatalf("%d descriptors open before the import, %d after", fds, got)
	}
	if got := settledGoroutines(goroutines); got != goroutines {
		t.Fatalf("%d goroutines before the import, %d after", goroutines, got)
	}
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

// TestImportDirCtxCancelMidWalk: the streaming import stops on a context
// cancelled while the walk is still listing, with the typed error, and
// leaves no goroutine behind. The walker checks the context before each
// of its three chunks and the loaders before each stat, so a context that
// reports cancellation from its second check on ends the walk before its
// last chunk.
func TestImportDirCtxCancelMidWalk(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3*importChunkFiles; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%04d", i)), []byte("small"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(1)
	if fs, err := ImportDirCtx(ctx, dir); !errors.Is(err, errs.ErrCancelled) || fs != nil {
		t.Fatalf("mid-walk cancellation returned (%v, %v), want ErrCancelled", fs, err)
	}
	if got := settledGoroutines(base); got != base {
		t.Fatalf("%d goroutines before the import, %d after", base, got)
	}
	if fs, err := ImportDirCtx(context.Background(), dir); err != nil || fs.Len() != 3*importChunkFiles {
		t.Fatalf("import after a cancelled one: %v", err)
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

// seededTree writes n small files of 1–5 KB in two directories, ≈ 1 MB
// for n = 300 so an import fills more than one slab, with bytes that
// differ per seed: every byte's low nibble is the seed (1–10), so no run
// of one tree's bytes, at any offset, equals a run of another's, and an
// import that hands one tree's slab to another shows as the other tree's
// bytes.
func seededTree(t *testing.T, n int, seed byte) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < n; i++ {
		sub := filepath.Join(dir, fmt.Sprintf("d%d", i%2))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		content := make([]byte, 1000+(i*37)%4000)
		for j := range content {
			content[j] = byte(i+j*7)<<4 | seed
		}
		if err := os.WriteFile(filepath.Join(sub, fmt.Sprintf("f%03d", i)), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// importMapped imports dir, failing the test on an error.
func importMapped(t *testing.T, dir string) (*FS, io.Closer) {
	t.Helper()
	fs, closer, err := ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs, closer
}

// requireTreeBytes fails unless every file of fs has, as its raw view, the
// bytes its file under dir has on disk.
func requireTreeBytes(t *testing.T, fs *FS, dir string) {
	t.Helper()
	for _, f := range fs.List() {
		want, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(f.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if raw, err := f.Bytes(); err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("%s: raw view differs from the file on disk (err %v)", f.Name, err)
		}
	}
}

// TestImportDirMappedRecyclesSlabs: an import's close hands its slabs to
// the next import, and only once. Back-to-back imports of two different
// trees each read their own bytes; after a closer runs twice, two imports
// alive at once — both drawing from what it released — still do.
func TestImportDirMappedRecyclesSlabs(t *testing.T) {
	a, b := seededTree(t, 300, 1), seededTree(t, 300, 2)
	fsA, closeA := importMapped(t, a)
	requireTreeBytes(t, fsA, a)
	if err := closeA.Close(); err != nil {
		t.Fatal(err)
	}
	fsB, closeB := importMapped(t, b)
	requireTreeBytes(t, fsB, b)
	if err := closeB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closeB.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	fsA, closeA = importMapped(t, a)
	fsB, closeB = importMapped(t, b)
	requireTreeBytes(t, fsA, a)
	requireTreeBytes(t, fsB, b)
	closeA.Close()
	closeB.Close()
}

// TestImportDirMappedReleasesOnEveryPath: a closer run twice, a cancelled
// import and a failed one each release what the import took. A released
// slab is the zero FileSlab, and on linux a slab holds the directory its
// last file was opened in until it is released, so a path that skipped
// the release would leave a descriptor open.
func TestImportDirMappedReleasesOnEveryPath(t *testing.T) {
	dir := seededTree(t, 300, 3)
	before := openFDs(t)

	_, closer := importMapped(t, dir)
	imp := closer.(*dirImport)
	if len(imp.slabs) == 0 {
		t.Fatal("an import of 300 small files filled no slab")
	}
	for i := 0; i < 2; i++ {
		if err := closer.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
		for _, s := range imp.slabs {
			if !reflect.ValueOf(*s).IsZero() {
				t.Fatalf("after Close %d a slab still holds state", i+1)
			}
		}
	}

	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(100)
	if _, _, err := ImportDirMappedCtx(ctx, dir); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("import cancelled a hundred files in: %v, want ErrCancelled", err)
	}

	const grower = "/proc/self/cmdline" // see TestImportDirMappedSizeDriftIsCorrupt
	if info, err := os.Stat(grower); err == nil && info.Mode().IsRegular() && info.Size() == 0 {
		if err := os.Symlink(grower, filepath.Join(dir, "d1", "f150-grower")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ImportDirMappedCtx(context.Background(), dir); !errors.Is(err, errs.ErrCorrupt) {
			t.Fatalf("import over a file that outgrew its stat: %v, want ErrCorrupt", err)
		}
	}
	if after := openFDs(t); after != before {
		t.Fatalf("%d descriptors open before the imports, %d after", before, after)
	}
}

// openFDs counts this process's open descriptors via /proc (linux); the
// fd-leak regression tests skip elsewhere.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count fds: %v", err)
	}
	return len(ents)
}
