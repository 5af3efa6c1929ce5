package vfs_test

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
	"repro/internal/vfs"
)

// The tests here read vfs file systems through the scan engine: the
// checksum manifest (scan.BuildManifestCtx, Manifest.VerifyCtx) over every
// import, and fused scans over the mapped and the streaming imports. The
// engine reads vfs files themselves, so scan imports vfs and these tests
// live in the external test package.

func TestChecksumDeterministicAndDiscriminating(t *testing.T) {
	ctx := context.Background()
	a := vfs.BytesFile("a", []byte("hello"))
	b := vfs.BytesFile("b", []byte("hellp"))
	fs := vfs.NewFS()
	_ = fs.Add(a)
	_ = fs.Add(b)
	m1, err := scan.BuildManifestCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := scan.BuildManifestCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if m1["a"] != m2["a"] || m1["b"] != m2["b"] {
		t.Error("checksum not deterministic")
	}
	if m1["a"].Checksum == m1["b"].Checksum {
		t.Error("different content, same checksum")
	}
	for _, f := range []vfs.File{a, b} {
		want, err := vfs.ChecksumOracle(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := m1[f.Name].Checksum; got != want {
			t.Errorf("%s: member checksum %x, hash/fnv says %x", f.Name, got, want)
		}
	}
	meta := vfs.NewFS()
	_ = meta.Add(vfs.NewFile("meta", 5))
	if _, err := scan.BuildManifestCtx(ctx, meta); err == nil {
		t.Error("expected error for metadata-only file")
	}
}

func TestManifestVerify(t *testing.T) {
	fs := vfs.NewFS()
	_ = fs.Add(vfs.BytesFile("x", []byte("one")))
	_ = fs.Add(vfs.BytesFile("y", []byte("two")))
	m, err := scan.BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCtx(context.Background(), fs); err != nil {
		t.Fatalf("self-verify failed: %v", err)
	}

	// Missing file.
	fs2 := vfs.NewFS()
	_ = fs2.Add(vfs.BytesFile("x", []byte("one")))
	if err := m.VerifyCtx(context.Background(), fs2); err == nil {
		t.Error("expected error for missing file")
	}
	// Extra file.
	fs3 := vfs.NewFS()
	_ = fs3.Add(vfs.BytesFile("x", []byte("one")))
	_ = fs3.Add(vfs.BytesFile("y", []byte("two")))
	_ = fs3.Add(vfs.BytesFile("z", []byte("three")))
	if err := m.VerifyCtx(context.Background(), fs3); err == nil {
		t.Error("expected error for extra file")
	}
	// Corrupted content (same size).
	fs4 := vfs.NewFS()
	_ = fs4.Add(vfs.BytesFile("x", []byte("one")))
	_ = fs4.Add(vfs.BytesFile("y", []byte("tWo")))
	if err := m.VerifyCtx(context.Background(), fs4); err == nil {
		t.Error("expected error for corrupted content")
	}
	// Wrong size.
	fs5 := vfs.NewFS()
	_ = fs5.Add(vfs.BytesFile("x", []byte("one")))
	_ = fs5.Add(vfs.BytesFile("y", []byte("twooo")))
	if err := m.VerifyCtx(context.Background(), fs5); err == nil {
		t.Error("expected error for wrong size")
	}
}

// cancelCorpus builds a deterministic in-memory corpus for cancellation
// tests.
func cancelCorpus(n int) *vfs.FS {
	fs := vfs.NewFS()
	for i := 0; i < n; i++ {
		data := make([]byte, 512+i)
		for j := range data {
			data[j] = byte((i*131 + j*7) % 251)
		}
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("file-%04d", i), data)); err != nil {
			panic(err)
		}
	}
	return fs
}

func TestExportPackCtxCancellation(t *testing.T) {
	fs := cancelCorpus(16)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fs.ExportPackCtx(cancelled, t.TempDir(), vfs.PackOptions{}); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled export pack returned %v", err)
	}
	// A live run into a fresh directory still round-trips.
	dir := t.TempDir()
	paths, err := fs.ExportPackCtx(context.Background(), dir, vfs.PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, closer, err := vfs.ImportPackCtx(context.Background(), paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	want, err := scan.BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.VerifyCtx(context.Background(), back); err != nil {
		t.Fatalf("pack round-trip after cancelled attempt: %v", err)
	}
}

func TestManifestVerifyReportsCorrupt(t *testing.T) {
	fs := cancelCorpus(4)
	m, err := scan.BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	e := m["file-0002"]
	e.Checksum ^= 1
	m["file-0002"] = e
	err = m.VerifyCtx(context.Background(), fs)
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Fatalf("errors.Is(%v, ErrCorrupt) = false", err)
	}
	var se *errs.StageError
	if !errors.As(err, &se) || se.File != "file-0002" {
		t.Fatalf("corruption blamed wrong file: %v", err)
	}
}

func TestExportImportPackRoundTrip(t *testing.T) {
	fs := vfs.PackTestFS(t, 60)
	wantManifest, err := scan.BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths, err := fs.ExportPackCtx(context.Background(), dir, vfs.PackOptions{Prefix: "t", ShardSize: 16 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected multiple shards, got %d", len(paths))
	}

	in, closer, err := vfs.ImportPackCtx(context.Background(), dir)
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
	fs := vfs.PackTestFS(t, 40)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, vfs.PackOptions{Prefix: "v", ShardSize: 16 * 1024}); err != nil {
		t.Fatal(err)
	}
	imports := map[string]func(context.Context, ...string) (*vfs.FS, io.Closer, error){
		"plain": vfs.ImportPackCtx, "mapped": vfs.ImportPackMappedCtx,
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
	in, closer, err := vfs.ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	var victim vfs.File
	for _, f := range in.List() {
		if f.Size > 2 {
			victim = f
			break
		}
	}
	if victim.Name == "" {
		t.Fatal("no member large enough to corrupt")
	}
	shard, off := victim.Locality()
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data[off+1] ^= 0x01
	if err := os.WriteFile(shard, data, 0o644); err != nil {
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
		if _, err := bad.Bytes(); bad.HasRaw() && !isCorruptMember(err) {
			t.Errorf("%s: raw view of the corrupted member: err = %v, want ErrCorrupt at stage verify naming %q", name, err, victim.Name)
		}
		if err := scan.Run(context.Background(), in.List(), scan.Options{}, scan.NewChecksum()); !isCorruptMember(err) {
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
	manifest, err := scan.BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.VerifyCtx(context.Background(), in); !errors.Is(err, errs.ErrCorrupt) || !strings.Contains(err.Error(), victim.Name) {
		t.Errorf("manifest verify over the damaged pack: %v, want ErrCorrupt naming %q", err, victim.Name)
	}
}

// TestMappedScanBitIdenticalToCopyingScan is the acceptance differential:
// a fused scan over the mapped import is bit-identical to the same scan
// over the copying import, at workers 1, 2 and 8.
func TestMappedScanBitIdenticalToCopyingScan(t *testing.T) {
	fs := vfs.PackTestFS(t, 80)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, vfs.PackOptions{Prefix: "t", ShardSize: 32 * 1024}); err != nil {
		t.Fatal(err)
	}
	plain, plainCloser, err := vfs.ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer plainCloser.Close()
	mapped, mappedCloser, err := vfs.ImportPackMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mappedCloser.Close()

	for _, workers := range []int{1, 2, 8} {
		opts := scan.Options{Workers: workers, BlockSize: 4096}
		ck := scan.NewChecksum()
		if err := scan.Run(context.Background(), scan.SequentialOrder(plain.List()), opts, ck); err != nil {
			t.Fatalf("workers=%d copying scan: %v", workers, err)
		}
		mk := scan.NewChecksum()
		if err := scan.Run(context.Background(), scan.SequentialOrder(mapped.List()), opts, mk); err != nil {
			t.Fatalf("workers=%d mapped scan: %v", workers, err)
		}
		a, b := ck.Sums(), mk.Sums()
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d sums vs %d", workers, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d file %d: copying %+v != mapped %+v", workers, i, a[i], b[i])
			}
		}
	}
}

// TestMappedDirScanBitIdenticalToStreamingScan is the acceptance
// differential: a fused scan over the mapped dir import is bit-identical
// to the same scan over the streaming import, at workers 1, 2 and 8 down
// to 3-byte blocks.
func TestMappedDirScanBitIdenticalToStreamingScan(t *testing.T) {
	for name, dir := range vfs.MappedTestTrees(t, 23) {
		t.Run(name, func(t *testing.T) { testMappedDirScanBitIdenticalToStreamingScan(t, dir) })
	}
}

func testMappedDirScanBitIdenticalToStreamingScan(t *testing.T, dir string) {
	plain, err := vfs.ImportDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := vfs.ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	for _, workers := range []int{1, 2, 8} {
		for _, block := range []int{3, 4096} {
			opts := scan.Options{Workers: workers, BlockSize: block}
			ck := scan.NewChecksum()
			if err := scan.Run(context.Background(), plain.List(), opts, ck); err != nil {
				t.Fatalf("workers=%d block=%d streaming scan: %v", workers, block, err)
			}
			mk := scan.NewChecksum()
			if err := scan.Run(context.Background(), mapped.List(), opts, mk); err != nil {
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
	dir := vfs.DirTestTree(t, 12)
	mapped, closer, err := vfs.ImportDirMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// Give every file a streaming opener that counts, beside the
	// import's own raw view; the raw path must win so the counter stays at
	// zero.
	opens := 0
	files := mapped.List()
	srcs := make([]scan.Source, len(files))
	for i, f := range files {
		raw, err := f.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = vfs.NewContentFile(f.Name, f.Size, vfs.Opener(func() (io.Reader, error) {
			opens++
			return f.Open()
		})).WithRawBytes(raw)
	}
	if err := scan.Run(context.Background(), srcs, scan.Options{Workers: 4}, scan.NewChecksum()); err != nil {
		t.Fatal(err)
	}
	if opens != 0 {
		t.Fatalf("mapped dir scan opened %d streaming readers, want 0", opens)
	}
}
