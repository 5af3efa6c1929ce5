package vfs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
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
