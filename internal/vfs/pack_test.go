package vfs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
)

// packTestFS builds an in-memory FS with deterministic content: varied
// sizes, nested names, empty files.
func packTestFS(t *testing.T, n int) *FS {
	t.Helper()
	fs := NewFS()
	for i := 0; i < n; i++ {
		size := (i * 131) % 3000
		data := make([]byte, size)
		for j := range data {
			data[j] = byte((i*7 + j) % 253)
		}
		name := fmt.Sprintf("sub%d/doc-%04d.txt", i%4, i)
		if err := fs.Add(BytesFile(name, data)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func TestExportPackTwiceIsByteIdentical(t *testing.T) {
	fs := packTestFS(t, 30)
	dirA, dirB := t.TempDir(), t.TempDir()
	pathsA, err := fs.ExportPackCtx(context.Background(), dirA, PackOptions{ShardSize: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	pathsB, err := fs.ExportPackCtx(context.Background(), dirB, PackOptions{ShardSize: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(pathsA) != len(pathsB) {
		t.Fatalf("shard counts differ: %d vs %d", len(pathsA), len(pathsB))
	}
	for i := range pathsA {
		a, err := os.ReadFile(pathsA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pathsB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d not byte-identical across exports", i)
		}
	}
}

func TestImportPackExplicitFiles(t *testing.T) {
	fs := packTestFS(t, 10)
	dir := t.TempDir()
	paths, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, closer, err := ImportPackCtx(context.Background(), paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if in.Len() != fs.Len() {
		t.Fatalf("imported %d files, want %d", in.Len(), fs.Len())
	}
}

func TestImportPackEmptyDir(t *testing.T) {
	if _, _, err := ImportPackCtx(context.Background(), t.TempDir()); err == nil {
		t.Fatal("ImportPack accepted a directory with no packs")
	}
}

func TestExportPackEmptyFS(t *testing.T) {
	paths, err := NewFS().ExportPackCtx(context.Background(), t.TempDir(), PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Fatalf("empty FS exported %d shards", len(paths))
	}
}

func TestImportPackReadAfterCloseFails(t *testing.T) {
	fs := packTestFS(t, 5)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{}); err != nil {
		t.Fatal(err)
	}
	in, closer, err := ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	closer.Close()
	var nonEmpty File
	for _, f := range in.List() {
		if f.Size > 0 {
			nonEmpty = f
			break
		}
	}
	if _, err := nonEmpty.ReadAll(); err == nil {
		t.Fatal("reading a pack-backed file succeeded after Close")
	}
}
