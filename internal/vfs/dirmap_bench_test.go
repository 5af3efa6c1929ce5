package vfs_test

import (
	"context"
	"io"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/packstore"
	"repro/internal/vfs"
)

// smallFileTree writes 2 000 corpus.Text400K files — the small-file shape
// grep-smallfiles imports, at a sixth of its count — under a temporary
// directory and returns it.
func smallFileTree(tb testing.TB) string {
	tb.Helper()
	fs, err := corpus.GenerateWithContentEagerCtx(context.Background(), corpus.Text400K(0.005), 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := fs.ExportCtx(context.Background(), dir); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// importAndClose is one mapped import of dir and its close.
func importAndClose(tb testing.TB, dir string) *vfs.FS {
	fs, closer, err := vfs.ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := closer.Close(); err != nil {
		tb.Fatal(err)
	}
	return fs
}

// BenchmarkImportDirMapped times a mapped import of 2 000 small files on
// disk and its close, with allocations: the import half of
// grep-smallfiles' op (walk, open, fstat, read, close, name order), warm.
func BenchmarkImportDirMapped(b *testing.B) {
	dir := smallFileTree(b)
	fs := importAndClose(b, dir)
	b.SetBytes(fs.TotalSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		importAndClose(b, dir)
	}
}

// TestImportDirMappedAllocsPerFile pins what a warm mapped import of many
// small files allocates: the walk lists and the loaders open each file
// without allocating, the slabs come back from the previous import's
// close, and every file shares one content source, so all that is left
// is per chunk and per import — a file's entry, File and place in the
// name order are slots of slices allocated whole. The pin holds the
// raw-descriptor build on linux.
func TestImportDirMappedAllocsPerFile(t *testing.T) {
	if runtime.GOOS != "linux" || !packstore.MmapSupported {
		t.Skip("the portable walk and loader allocate per file: os.ReadDir's entries, os.Open's File")
	}
	dir := smallFileTree(t)
	files := importAndClose(t, dir).Len()
	allocs := testing.AllocsPerRun(5, func() { importAndClose(t, dir) })
	if perFile := allocs / float64(files); perFile > 0.05 {
		t.Fatalf("importing %d small files allocated %.0f times, %.3f per file, want at most 0.05", files, allocs, perFile)
	}
	t.Logf("%d files: %.0f allocations, %.3f per file", files, allocs, allocs/float64(files))
}

// TestImportDirAllocsPerFile pins what the streaming import of many small
// files allocates: the walk lists and the loaders lstat each file without
// allocating, and every file shares the import's one content source, so
// all that is left is per chunk and per import. Opening a file then costs
// its reader and the File the source is handed, and nothing for the path,
// which is joined in a stack buffer. The pins hold the raw-descriptor
// build on linux.
func TestImportDirAllocsPerFile(t *testing.T) {
	if runtime.GOOS != "linux" || !packstore.MmapSupported {
		t.Skip("the portable walk and opener allocate per file: os.ReadDir's entries, os.Open's File")
	}
	dir := smallFileTree(t)
	fs, err := vfs.ImportDirCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := vfs.ImportDirCtx(context.Background(), dir); err != nil {
			t.Fatal(err)
		}
	})
	if perFile := allocs / float64(fs.Len()); perFile > 0.05 {
		t.Fatalf("importing %d small files allocated %.0f times, %.3f per file, want at most 0.05", fs.Len(), allocs, perFile)
	}
	t.Logf("%d files: %.0f allocations, %.3f per file", fs.Len(), allocs, allocs/float64(fs.Len()))
	f := fs.List()[0]
	opens := testing.AllocsPerRun(100, func() {
		r, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.(io.Closer).Close(); err != nil {
			t.Fatal(err)
		}
	})
	if opens > 3 {
		t.Errorf("Open+Close of %q allocated %.2f times, want at most 3", f.Name, opens)
	}
	t.Logf("Open+Close: %.2f allocations", opens)
}

// TestImportPackMappedAllocsPerMember pins what a mapped import of a pack
// set of many small members allocates — dist-packed's shape, one corpus
// file per member in 256 KiB shards: per member, the name packstore
// reads; per shard, its index, name map, mapping and the one content
// source vfs gives all its members; the FS adds only its one slice.
func TestImportPackMappedAllocsPerMember(t *testing.T) {
	fs, err := corpus.GenerateWithContentEagerCtx(context.Background(), corpus.Text400K(0.005), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, vfs.PackOptions{ShardSize: 256 << 10}); err != nil {
		t.Fatal(err)
	}
	importPacks := func() {
		if _, closer, err := vfs.ImportPackMappedCtx(context.Background(), dir); err != nil {
			t.Fatal(err)
		} else if err := closer.Close(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, importPacks)
	if perMember := allocs / float64(fs.Len()); perMember > 1.3 {
		t.Fatalf("importing %d members allocated %.0f times, %.2f per member, want at most 1.3", fs.Len(), allocs, perMember)
	}
	t.Logf("%d members: %.0f allocations, %.2f per member", fs.Len(), allocs, allocs/float64(fs.Len()))
}
