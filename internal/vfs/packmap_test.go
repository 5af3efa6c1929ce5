package vfs

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/scan"
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
		pShard, pOff := pf.Locality()
		mShard, mOff := mf.Locality()
		if pShard != mShard || pOff != mOff {
			t.Fatalf("file %q locality differs: plain (%s,%d) mapped (%s,%d)", pf.Name, pShard, pOff, mShard, mOff)
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

// TestMappedScanBitIdenticalToCopyingScan is the acceptance differential:
// a fused scan over the mapped import is bit-identical to the same scan
// over the copying import, at workers 1, 2 and 8.
func TestMappedScanBitIdenticalToCopyingScan(t *testing.T) {
	fs := packTestFS(t, 80)
	dir := t.TempDir()
	if _, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{Prefix: "t", ShardSize: 32 * 1024}); err != nil {
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

	for _, workers := range []int{1, 2, 8} {
		opts := scan.Options{Workers: workers, BlockSize: 4096}
		ck := scan.NewChecksum()
		if err := scan.Run(context.Background(), scan.SequentialOrder(Sources(plain.List())), opts, ck); err != nil {
			t.Fatalf("workers=%d copying scan: %v", workers, err)
		}
		mk := scan.NewChecksum()
		if err := scan.Run(context.Background(), scan.SequentialOrder(Sources(mapped.List())), opts, mk); err != nil {
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
// streaming reads fail loudly instead of touching a dead mapping — on
// both the mmap and fallback builds, since Close detaches the pack's
// reader either way.
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
}
