package vfs

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"unsafe"
)

// TestImportPackMappedMatchesImportPack: the mapped import exposes the
// same corpus as the copying import — same names, sizes, locality and
// bytes — plus a raw view per file.
func TestImportPackMappedMatchesImportPack(t *testing.T) {
	fs := packTestFS(t, 60)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "t", ShardSize: 16 * 1024}); err != nil {
		t.Fatal(err)
	}

	plain, plainCloser, err := ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer plainCloser.Close()
	mapped, mappedCloser, err := ImportPackMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mappedCloser.Close()

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
		if pf.shard != mf.shard || pf.shardOff != mf.shardOff {
			t.Fatalf("file %q locality differs: plain (%s,%d) mapped (%s,%d)", pf.Name, pf.shard, pf.shardOff, mf.shard, mf.shardOff)
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
			t.Fatalf("file %q raw view differs from streamed content", pf.Name)
		}
		// The streaming path of the mapped import must agree too (it reads
		// through the same mapping).
		streamed, err := mf.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, streamed) {
			t.Fatalf("file %q streamed content differs under mapped import", pf.Name)
		}
	}
}

// TestImportPackMappedCancelled: a pre-cancelled context aborts the
// import with the typed error and leaks no mappings (the failure path
// closes them; nothing to assert beyond a clean error return under
// -race).
func TestImportPackMappedCancelled(t *testing.T) {
	fs := packTestFS(t, 10)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "t"}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ImportPackMappedCtx(ctx, dir); err == nil {
		t.Fatal("cancelled mapped import succeeded")
	}
}

// TestImportPackMappedCloseInvalidatesStreaming: after the closer runs,
// streaming reads and raw views fail loudly instead of touching (or
// hashing) a dead mapping — on both the mmap and fallback builds, since
// Close detaches the pack's reader and marks the import closed either
// way.
func TestImportPackMappedCloseInvalidatesStreaming(t *testing.T) {
	fs := packTestFS(t, 6)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "t"}); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := ImportPackMappedCtx(context.Background(), dir)
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
	if _, err := nonEmpty.ReadAll(); err == nil || !strings.Contains(err.Error(), "after Reader.Close") {
		t.Fatalf("read after close returned %v, want loud close error", err)
	}
	if _, err := nonEmpty.Bytes(); err == nil || !strings.Contains(err.Error(), "after its pack import was closed") {
		t.Fatalf("raw view after close returned %v, want loud close error", err)
	}
}

// TestFileStaysNinetySixBytes pins the per-file budget: an FS holds one
// File per corpus file, so the stored sum must live in the padding beside
// hasRaw rather than grow the struct.
func TestFileStaysNinetySixBytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the budget is for 64-bit platforms")
	}
	if got := unsafe.Sizeof(File{}); got != 96 {
		t.Fatalf("unsafe.Sizeof(File{}) = %d, want 96", got)
	}
}

// TestRawViewCheckAllocatesNothing: holding a mapped member's raw view to
// its stored sum costs a hash pass and no allocation.
func TestRawViewCheckAllocatesNothing(t *testing.T) {
	fs := packTestFS(t, 6)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "t"}); err != nil {
		t.Fatal(err)
	}
	mapped, closer, err := ImportPackMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	f := mapped.List()[len(mapped.List())-1]
	if !f.hasSum || f.Size == 0 {
		t.Fatalf("member %q carries no stored sum or no bytes", f.Name)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.Bytes(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("checking a raw view allocated %.1f times, want 0", allocs)
	}
}
