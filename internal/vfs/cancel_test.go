package vfs

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/errs"
)

// cancelCorpus builds a deterministic in-memory corpus for cancellation
// tests.
func cancelCorpus(n int) *FS {
	fs := NewFS()
	for i := 0; i < n; i++ {
		data := make([]byte, 512+i)
		for j := range data {
			data[j] = byte((i*131 + j*7) % 251)
		}
		if err := fs.Add(BytesFile(fmt.Sprintf("file-%04d", i), data)); err != nil {
			panic(err)
		}
	}
	return fs
}

// TestBuildManifestCtxCancellation: at every worker count a pre-cancelled
// context yields the typed cancellation error, and a subsequent live run
// over the same FS is byte-identical to a never-cancelled one.
func TestBuildManifestCtxCancellation(t *testing.T) {
	fs := cancelCorpus(64)
	want, err := BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		if _, err := BuildManifestWorkersCtx(cancelled, fs, workers); !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("workers=%d: cancelled build returned %v, want ErrCancelled", workers, err)
		}
		// The cancelled attempt must not poison the corpus: a completed
		// run afterwards reproduces the reference manifest exactly.
		got, err := BuildManifestWorkersCtx(context.Background(), fs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d entries, want %d", workers, len(got), len(want))
		}
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("workers=%d: %s = %+v, want %+v", workers, name, got[name], w)
			}
		}
	}
}

func TestExportPackCtxCancellation(t *testing.T) {
	fs := cancelCorpus(16)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fs.ExportPackCtx(cancelled, t.TempDir(), PackOptions{}); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled export pack returned %v", err)
	}
	// A live run into a fresh directory still round-trips.
	dir := t.TempDir()
	paths, err := fs.ExportPackCtx(context.Background(), dir, PackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, closer, err := ImportPackCtx(context.Background(), paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	want, err := BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.VerifyCtx(context.Background(), back); err != nil {
		t.Fatalf("pack round-trip after cancelled attempt: %v", err)
	}
}

func TestVfsErrNotFoundIsTyped(t *testing.T) {
	fs := NewFS()
	_, err := fs.Get("missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("errors.Is(%v, vfs.ErrNotFound) = false", err)
	}
	if !errors.Is(err, errs.ErrNotFound) {
		t.Fatalf("errors.Is(%v, errs.ErrNotFound) = false", err)
	}
}

func TestManifestVerifyReportsCorrupt(t *testing.T) {
	fs := cancelCorpus(4)
	m, err := BuildManifestCtx(context.Background(), fs)
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
