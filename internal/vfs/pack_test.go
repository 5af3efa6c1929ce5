package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/scan"
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

// TestImportPackReadsAreVerified pins that every read of a pack member is
// held to its stored sum: a clean pack reads identically through the plain
// and the mapped import, and a single flipped payload bit on disk turns
// the damaged member's every read — ReadAll on either import, the raw
// view of the mapped one, a scan over either — into a typed ErrCorrupt
// naming the member,
// while every other member still reads clean.
func TestImportPackReadsAreVerified(t *testing.T) {
	fs := packTestFS(t, 40)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "v", ShardSize: 16 * 1024}); err != nil {
		t.Fatal(err)
	}
	imports := map[string]func(context.Context, ...string) (*FS, io.Closer, error){
		"plain": ImportPackCtx, "mapped": ImportPackMappedCtx,
	}
	for name, imp := range imports {
		in, closer, err := imp(context.Background(), dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fs.List() {
			got, err := in.Get(f.Name)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := f.ReadAll()
			if data, err := got.ReadAll(); err != nil || !bytes.Equal(data, want) {
				t.Fatalf("%s: clean member %q: err %v, equal %v", name, f.Name, err, bytes.Equal(data, want))
			}
		}
		closer.Close()
	}

	// Flip one payload bit on disk, at the member locality the import
	// recorded (shard path + offset).
	in, closer, err := ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var victim File
	for _, f := range in.List() {
		if f.Size > 2 {
			victim = f
			break
		}
	}
	if victim.Name == "" {
		t.Fatal("no member large enough to corrupt")
	}
	data, err := os.ReadFile(victim.shard)
	if err != nil {
		t.Fatal(err)
	}
	data[victim.shardOff+1] ^= 0x01
	if err := os.WriteFile(victim.shard, data, 0o644); err != nil {
		t.Fatal(err)
	}

	isCorruptMember := func(err error) bool {
		var se *errs.StageError
		return errors.Is(err, errs.ErrCorrupt) && errs.StageOf(err) == "verify" && errors.As(err, &se) && se.File == victim.Name
	}
	for name, imp := range imports {
		in, closer, err := imp(context.Background(), dir)
		if err != nil {
			t.Fatal(err) // index untouched: the import itself still succeeds
		}
		defer closer.Close()
		bad, err := in.Get(victim.Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.ReadAll(); !isCorruptMember(err) {
			t.Errorf("%s: read of the corrupted member: err = %v, want ErrCorrupt at stage verify naming %q", name, err, victim.Name)
		}
		if _, err := bad.Bytes(); bad.hasRaw && !isCorruptMember(err) {
			t.Errorf("%s: raw view of the corrupted member: err = %v, want ErrCorrupt at stage verify naming %q", name, err, victim.Name)
		}
		if err := scan.Run(context.Background(), Sources(in.List()), scan.Options{}, scan.NewChecksum()); !isCorruptMember(err) {
			t.Errorf("%s: scan over the corrupted member: err = %v, want ErrCorrupt at stage verify naming %q", name, err, victim.Name)
		}
		for _, f := range in.List() {
			if f.Name == victim.Name {
				continue
			}
			if _, err := f.ReadAll(); err != nil {
				t.Errorf("%s: undamaged member %q fails its read: %v", name, f.Name, err)
			}
		}
	}

	// What `reshape -pack -verify` runs catches it too: the manifest of
	// what was exported, checked against a re-import, fails naming the
	// member.
	manifest, err := BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.VerifyCtx(context.Background(), in); !errors.Is(err, errs.ErrCorrupt) || !strings.Contains(err.Error(), victim.Name) {
		t.Errorf("manifest verify over the damaged pack: %v, want ErrCorrupt naming %q", err, victim.Name)
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
