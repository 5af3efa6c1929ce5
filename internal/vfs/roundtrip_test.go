package vfs_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scan"
	"repro/internal/vfs"
)

// On-disk round-trips: the in-memory FS paths have always been
// round-trip tested; these cover the real-file-system legs the CLIs use
// (ImportDir → Export → ImportDir) plus descriptor hygiene.

// writeTree materialises a small nested directory of real files.
func writeTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{
		"a.txt":           []byte("alpha"),
		"empty.txt":       {},
		"sub/b.txt":       []byte(strings.Repeat("bravo ", 1000)),
		"sub/deep/c.bin":  {0, 1, 2, 3, 255, 254, 7},
		"sub/deep/d.txt":  []byte("delta"),
		"another/e.fancy": []byte("echo echo echo"),
	}
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

func TestImportExportImportRoundTrip(t *testing.T) {
	src := t.TempDir()
	files := writeTree(t, src)

	fs1, err := vfs.ImportDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if fs1.Len() != len(files) {
		t.Fatalf("imported %d files, want %d", fs1.Len(), len(files))
	}
	manifest, err := scan.BuildManifestCtx(context.Background(), fs1)
	if err != nil {
		t.Fatal(err)
	}

	out := t.TempDir()
	if err := fs1.ExportCtx(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	fs2, err := vfs.ImportDir(out)
	if err != nil {
		t.Fatal(err)
	}

	// Byte equality per file against the original tree.
	for name, want := range files {
		f, err := fs2.Get(name)
		if err != nil {
			t.Fatalf("file %q lost in round-trip: %v", name, err)
		}
		got, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %q differs after ImportDir→Export→ImportDir", name)
		}
	}
	// Manifest built over the first import must verify the second — the
	// real-directory counterpart of the in-memory reshaping invariant.
	if err := manifest.VerifyCtx(context.Background(), fs2); err != nil {
		t.Fatalf("manifest verify over re-import: %v", err)
	}
}

func TestManifestVerifyDetectsOnDiskCorruption(t *testing.T) {
	src := t.TempDir()
	writeTree(t, src)
	fs1, err := vfs.ImportDir(src)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := scan.BuildManifestCtx(context.Background(), fs1)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte of a real file; a fresh import must fail verification.
	path := filepath.Join(src, "a.txt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, err := vfs.ImportDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.VerifyCtx(context.Background(), fs2); err == nil {
		t.Fatal("manifest missed a flipped byte on disk")
	}
}

func TestExportRejectsPathTraversal(t *testing.T) {
	for _, name := range []string{"../escape.txt", "a/../../escape.txt", "/abs.txt"} {
		t.Run(name, func(t *testing.T) {
			fs := vfs.NewFS()
			if err := fs.Add(vfs.BytesFile(name, []byte("x"))); err != nil {
				t.Fatal(err)
			}
			parent := t.TempDir()
			out := filepath.Join(parent, "out")
			if err := fs.ExportCtx(context.Background(), out); err == nil {
				t.Fatalf("Export accepted traversal name %q", name)
			}
			// Nothing may have been written outside the output directory.
			if _, err := os.Stat(filepath.Join(parent, "escape.txt")); err == nil {
				t.Fatal("Export wrote outside the output directory")
			}
		})
	}
}

func TestExportAllowsDotDotInFileName(t *testing.T) {
	// ".." as a name substring (not a path element) is legitimate.
	fs := vfs.NewFS()
	if err := fs.Add(vfs.BytesFile("notes..old.txt", []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if err := fs.ExportCtx(context.Background(), t.TempDir()); err != nil {
		t.Fatalf("Export rejected a benign name: %v", err)
	}
}

func TestReadPathsDoNotLeakDescriptors(t *testing.T) {
	src := t.TempDir()
	const n = 64
	for i := 0; i < n; i++ {
		name := filepath.Join(src, fmt.Sprintf("f%03d.txt", i))
		if err := os.WriteFile(name, []byte(strings.Repeat("x", 100+i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := vfs.ImportDir(src)
	if err != nil {
		t.Fatal(err)
	}
	before := vfs.OpenFDs(t)

	// Every disk-touching read path: ReadAll, Checksum, BuildManifestCtx,
	// Concat streaming.
	for _, f := range fs.List() {
		if _, err := f.ReadAll(); err != nil {
			t.Fatal(err)
		}
		if _, err := vfs.ChecksumOracle(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := scan.BuildManifestCtx(context.Background(), fs); err != nil {
		t.Fatal(err)
	}
	merged := vfs.Concat("unit", fs.List())
	if _, err := merged.ReadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := vfs.ChecksumOracle(merged); err != nil {
		t.Fatal(err)
	}

	after := vfs.OpenFDs(t)
	if after > before {
		t.Fatalf("descriptor leak: %d open before reads, %d after", before, after)
	}
}
