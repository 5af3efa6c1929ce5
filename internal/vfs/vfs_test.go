package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMetadataOnlyFile(t *testing.T) {
	f := NewFile("a.txt", 100)
	if f.HasContent() {
		t.Error("metadata file reports content")
	}
	if _, err := f.Open(); err == nil {
		t.Error("expected error opening metadata-only file")
	}
	if _, err := f.ReadAll(); err == nil {
		t.Error("expected error reading metadata-only file")
	}
}

func TestBytesFile(t *testing.T) {
	f := BytesFile("b.txt", []byte("hello world"))
	if f.Size != 11 {
		t.Errorf("size = %d, want 11", f.Size)
	}
	data, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" {
		t.Errorf("content = %q", data)
	}
	// Re-reading must work (fresh reader per Open).
	data2, err := f.ReadAll()
	if err != nil || !bytes.Equal(data, data2) {
		t.Errorf("second read differs: %q, %v", data2, err)
	}
}

func TestContentFileSizeMismatch(t *testing.T) {
	f := NewContentFile("c.txt", 5, func() (io.Reader, error) { return strings.NewReader("too long"), nil })
	if _, err := f.ReadAll(); err == nil {
		t.Error("expected size-mismatch error")
	}
}

func TestConcatPreservesBytes(t *testing.T) {
	members := []File{
		BytesFile("1", []byte("alpha ")),
		BytesFile("2", []byte("beta ")),
		BytesFile("3", []byte("gamma")),
	}
	merged := Concat("unit-000", members)
	if merged.Size != 16 {
		t.Errorf("merged size = %d, want 16", merged.Size)
	}
	data, err := merged.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "alpha beta gamma" {
		t.Errorf("merged content = %q", data)
	}
}

func TestConcatIndependentOfInputSliceMutation(t *testing.T) {
	members := []File{BytesFile("1", []byte("aa")), BytesFile("2", []byte("bb"))}
	merged := Concat("u", members)
	members[0] = BytesFile("1", []byte("XX"))
	data, err := merged.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "aabb" {
		t.Errorf("merged content changed after input mutation: %q", data)
	}
}

func TestConcatMetadataOnly(t *testing.T) {
	merged := Concat("u", []File{NewFile("1", 10), NewFile("2", 20)})
	if merged.Size != 30 {
		t.Errorf("size = %d, want 30", merged.Size)
	}
	if merged.HasContent() {
		t.Error("metadata-only concat should have no content")
	}
}

func TestConcatEmpty(t *testing.T) {
	merged := Concat("u", nil)
	if merged.Size != 0 || merged.HasContent() {
		t.Errorf("empty concat = %+v", merged)
	}
}

func TestFSAddGetRemove(t *testing.T) {
	fs := NewFS()
	if err := fs.Add(NewFile("x", 5)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Add(NewFile("x", 5)); err == nil {
		t.Error("expected duplicate error")
	}
	if err := fs.Add(NewFile("", 5)); err == nil {
		t.Error("expected empty-name error")
	}
	if err := fs.Add(NewFile("neg", -1)); err == nil {
		t.Error("expected negative-size error")
	}
	f, err := fs.Get("x")
	if err != nil || f.Size != 5 {
		t.Errorf("get = %+v, %v", f, err)
	}
	if _, err := fs.Get("missing"); err == nil {
		t.Error("expected not-found error")
	}
	if fs.Len() != 1 || fs.TotalSize() != 5 {
		t.Errorf("len=%d total=%d", fs.Len(), fs.TotalSize())
	}
}

// fileNames lists the files' names.
func fileNames(files []File) []string {
	var names []string
	for _, f := range files {
		names = append(names, f.Name)
	}
	return names
}

// fsNames lists the FS's names in List order.
func fsNames(fs *FS) []string { return fileNames(fs.List()) }

// TestFSAddKeepsNameOrder: Adds in any order leave the FS sorted by name;
// a name it holds is refused whether it sits among the sorted files or
// among those added out of order and not yet merged, and whether the new
// file would append (it sorts last) or not; and Get finds every file and
// misses names before, between and after them, before the merge and
// after it.
func TestFSAddKeepsNameOrder(t *testing.T) {
	fs := NewFS()
	added := []string{"m", "c", "x", "a", "k", "z", "b"}
	for i, name := range added {
		if err := fs.Add(NewFile(name, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, dups ...string) {
		t.Helper()
		for _, dup := range dups {
			if err := fs.Add(NewFile(dup, 100)); err == nil || !strings.Contains(err.Error(), "already exists") {
				t.Errorf("%s: Add of a second %q: %v, want an already-exists error", when, dup, err)
			}
		}
		if fs.Len() != len(added) || fs.TotalSize() != 21 {
			t.Fatalf("%s, after refused duplicates: %d files, %d bytes, want 7 and 21", when, fs.Len(), fs.TotalSize())
		}
		for i, name := range added {
			if f, err := fs.Get(name); err != nil || f.Size != int64(i) {
				t.Errorf("%s: Get(%q) = %+v, %v, want size %d", when, name, f, err, i)
			}
		}
		for _, miss := range []string{"", "0", "aa", "l", "y", "zz"} {
			if _, err := fs.Get(miss); !errors.Is(err, ErrNotFound) {
				t.Errorf("%s: Get(%q) = %v, want ErrNotFound", when, miss, err)
			}
		}
	}
	check("before List", "m", "c", "b")
	if got, want := fsNames(fs), []string{"a", "b", "c", "k", "m", "x", "z"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %q, want %q", got, want)
	}
	check("after List", "z", "a", "k")
}

// TestFSListKeepsItsContents: a List taken before later Adds keeps its
// contents — files that sort last are appended past its end, the others
// merged into a new slice by the next List even where the slice has room
// — and a caller's append to a List does not share the FS's spare room.
func TestFSListKeepsItsContents(t *testing.T) {
	fs := NewFS()
	// addLast adds files that sort last until the FS's slice has room for
	// another, so a file could be put in place.
	last := "m"
	addLast := func() {
		for first := true; first || cap(fs.files) == len(fs.files); first = false {
			if last += "m"; fs.Add(NewFile(last, 1)) != nil {
				t.Fatalf("Add(%q) failed", last)
			}
		}
	}
	for _, name := range []string{"b", "d", "f"} {
		addLast()
		before := fs.List()
		kept := slices.Clone(before)
		if err := fs.Add(NewFile(name, 1)); err != nil {
			t.Fatal(err)
		}
		if got := fsNames(fs); !slices.Contains(got, name) || !reflect.DeepEqual(before, kept) {
			t.Fatalf("adding %q and listing %q rewrote an earlier List: %q", name, got, fileNames(before))
		}
	}
	if got := fsNames(fs); !slices.IsSorted(got) || len(got) != len(fs.files) {
		t.Fatalf("List = %q, want every file in name order", got)
	}
	addLast()
	mine := append(fs.List(), NewFile("mine", 1))
	addLast()
	if mine[len(mine)-1].Name != "mine" {
		t.Fatalf("an Add overwrote a caller's append to List with %q", mine[len(mine)-1].Name)
	}
}

// TestFSAddOutOfOrderScales: a long run of Adds out of name order — as a
// generator makes once its numbers outgrow their zero padding
// ("d/10000000" sorts before "d/9999999") — costs a sort and a merge, not
// a copy of the FS per file: 20 000 files added in reverse, then listed,
// allocate a few times their own slice (a copy per file would be ≈ 20 GB).
func TestFSAddOutOfOrderScales(t *testing.T) {
	const n = 20000
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("d/%07d", n-1-i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fs := NewFS()
	for _, name := range names {
		if err := fs.Add(NewFile(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	list := fs.List()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*n*unsafe.Sizeof(File{})); got > limit {
		t.Errorf("%d out-of-order Adds and a List allocated %d bytes, want at most %d", n, got, limit)
	}
	if len(list) != n || !slices.IsSortedFunc(list, byFileName) || list[0].Name != names[n-1] {
		t.Fatalf("List holds %d files, sorted %v, want the %d added in name order", len(list), slices.IsSortedFunc(list, byFileName), n)
	}
	if f, err := fs.Get(names[n/2]); err != nil || f.Name != names[n/2] {
		t.Fatalf("Get(%q) = %q, %v", names[n/2], f.Name, err)
	}
}

func TestFSListSorted(t *testing.T) {
	fs := NewFS()
	for _, name := range []string{"c", "a", "b"} {
		if err := fs.Add(NewFile(name, 1)); err != nil {
			t.Fatal(err)
		}
	}
	files := fs.List()
	if files[0].Name != "a" || files[1].Name != "b" || files[2].Name != "c" {
		t.Errorf("list not sorted: %v", files)
	}
	// Add after a List and re-list: still sorted.
	if err := fs.Add(NewFile("0", 1)); err != nil {
		t.Fatal(err)
	}
	files = fs.List()
	if files[0].Name != "0" {
		t.Errorf("re-sort failed: %v", files)
	}
}

func TestFSSizes(t *testing.T) {
	fs := NewFS()
	_ = fs.Add(NewFile("a", 10))
	_ = fs.Add(NewFile("b", 20))
	sizes := fs.Sizes()
	if len(sizes) != 2 || sizes[0] != 10 || sizes[1] != 20 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fs := NewFS()
	want := map[string]string{
		"doc1.txt":        "first document",
		"sub/doc2.txt":    "second document, nested",
		"sub/deep/d3.txt": "third",
	}
	for name, content := range want {
		if err := fs.Add(BytesFile(name, []byte(content))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.ExportCtx(context.Background(), dir); err != nil {
		t.Fatal(err)
	}
	back, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(want) {
		t.Fatalf("imported %d files, want %d", back.Len(), len(want))
	}
	for name, content := range want {
		f, err := back.Get(name)
		if err != nil {
			t.Fatalf("get %q: %v", name, err)
		}
		data, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != content {
			t.Errorf("%q content = %q, want %q", name, data, content)
		}
	}
}

func TestExportMetadataOnlyFails(t *testing.T) {
	fs := NewFS()
	_ = fs.Add(NewFile("meta", 10))
	if err := fs.ExportCtx(context.Background(), t.TempDir()); err == nil {
		t.Error("expected error exporting metadata-only file")
	}
}

func TestImportDirMissing(t *testing.T) {
	if _, err := ImportDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("expected error importing missing dir")
	}
}

func TestImportOpensLazily(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")
	if err := os.WriteFile(path, []byte("live"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the underlying file; a lazy reader must observe the new bytes.
	if err := os.WriteFile(path, []byte("edit"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Get("f.txt")
	data, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "edit" {
		t.Errorf("content = %q, want lazily-read %q", data, "edit")
	}
}

// Property: concatenation of arbitrary byte contents is exactly the joined
// bytes, and the declared size always matches.
func TestConcatProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		members := make([]File, len(chunks))
		var want []byte
		for i, c := range chunks {
			members[i] = BytesFile(fmt.Sprintf("m%d", i), c)
			want = append(want, c...)
		}
		merged := Concat("u", members)
		if len(chunks) == 0 {
			return merged.Size == 0
		}
		got, err := merged.ReadAll()
		if err != nil {
			return false
		}
		return bytes.Equal(got, want) && merged.Size == int64(len(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
