package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/errs"
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

func TestExportImportPackRoundTrip(t *testing.T) {
	fs := packTestFS(t, 60)
	wantManifest, err := BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "t", ShardSize: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected multiple shards, got %d", len(paths))
	}

	in, closer, err := ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if in.Len() != fs.Len() {
		t.Fatalf("imported %d files, want %d", in.Len(), fs.Len())
	}
	if err := wantManifest.VerifyCtx(context.Background(), in); err != nil {
		t.Fatalf("manifest over pack import: %v", err)
	}
	// Byte equality file by file.
	for _, f := range fs.List() {
		imp, err := in.Get(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		b, err := imp.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("file %q differs after pack round-trip", f.Name)
		}
	}
}

// TestImportPackVerified pins the -verify-reads contract: a clean pack
// reads identically through the verifying import, and a single flipped
// payload bit on disk turns the damaged member's read into a typed
// ErrCorrupt naming the member — while every other member still reads
// clean. The plain import, by contrast, returns the flipped bytes
// silently; that difference is the whole point of the mode, and why
// `reshape -pack -verify` checks its plain re-import against a manifest.
func TestImportPackVerified(t *testing.T) {
	fs := packTestFS(t, 40)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "v", ShardSize: 16 * 1024}); err != nil {
		t.Fatal(err)
	}

	in, closer, err := ImportPackVerifiedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs.List() {
		imp, err := in.Get(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := f.ReadAll()
		got, err := imp.ReadAll()
		if err != nil {
			t.Fatalf("verified read of clean member %q: %v", f.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %q differs through verified import", f.Name)
		}
	}
	closer.Close()

	// Flip one payload bit on disk. Locate the victim through the
	// member locality the import recorded (shard path + offset).
	victim := ""
	var shard string
	var off int64
	for _, f := range in.List() {
		if f.Size > 2 {
			victim = f.Name
			shard, off = f.Locality()
			break
		}
	}
	if victim == "" {
		t.Fatal("no member large enough to corrupt")
	}
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data[off+1] ^= 0x01
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}

	in2, closer2, err := ImportPackVerifiedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err) // index untouched: the import itself still succeeds
	}
	defer closer2.Close()
	bad, err := in2.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	_, err = bad.ReadAll()
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Fatalf("read of corrupted member: err = %v, want ErrCorrupt", err)
	}
	var se *errs.StageError
	if !errors.As(err, &se) || se.File != victim {
		t.Errorf("corruption blamed %v, want member %q", err, victim)
	}
	for _, f := range in2.List() {
		if f.Name == victim {
			continue
		}
		if _, err := f.ReadAll(); err != nil {
			t.Errorf("undamaged member %q fails verified read: %v", f.Name, err)
		}
	}

	// The unverified import streams the damage through without complaint.
	in3, closer3, err := ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer3.Close()
	f3, err := in3.Get(victim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.ReadAll(); err != nil {
		t.Errorf("plain import surfaced the corruption: %v (verified import exists for this)", err)
	}

	// What `reshape -pack -verify` runs does catch it: the manifest of
	// what was exported, checked against that plain re-import, fails
	// naming the member.
	manifest, err := BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	err = manifest.VerifyCtx(context.Background(), in3)
	if !errors.Is(err, errs.ErrCorrupt) || !errors.As(err, &se) || se.File != victim {
		t.Errorf("manifest verify over the damaged pack: %v, want ErrCorrupt naming %q", err, victim)
	}
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
