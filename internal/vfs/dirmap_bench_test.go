package vfs_test

import (
	"context"
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
// grep-smallfiles' op (walk, open, fstat, read, close, FS insert), warm.
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
// without allocating, and the slabs come back from the previous import's
// close, so what is left per file is its File's content source and its
// share of the FS. The pin holds the raw-descriptor build on linux.
func TestImportDirMappedAllocsPerFile(t *testing.T) {
	if runtime.GOOS != "linux" || !packstore.MmapSupported {
		t.Skip("the portable walk and loader allocate per file: os.ReadDir's entries, os.Open's File")
	}
	dir := smallFileTree(t)
	files := importAndClose(t, dir).Len()
	allocs := testing.AllocsPerRun(5, func() { importAndClose(t, dir) })
	if perFile := allocs / float64(files); perFile > 2 {
		t.Fatalf("importing %d small files allocated %.0f times, %.2f per file, want at most 2", files, allocs, perFile)
	}
	t.Logf("%d files: %.0f allocations, %.2f per file", files, allocs, allocs/float64(files))
}
