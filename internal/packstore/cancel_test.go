package packstore

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/errs"
)

// TestVerifyCtxCancellation: a pre-cancelled context yields the typed
// cancellation error at every worker count, and a live verify afterwards
// still passes — the cancelled attempt reads nothing it shouldn't.
func TestVerifyCtxCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pack")
	writePack(t, path, testMembers(40))
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		if err := p.VerifyCtx(cancelled, workers); !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("workers=%d: cancelled verify returned %v, want ErrCancelled", workers, err)
		}
		if err := p.VerifyCtx(context.Background(), workers); err != nil {
			t.Fatalf("workers=%d: verify after cancelled attempt: %v", workers, err)
		}
	}
}

func TestSetVerifyCtxCancellation(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.pack", "b.pack"} {
		writePack(t, filepath.Join(dir, name), testMembers(10))
	}
	paths, err := Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	set, err := OpenSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		if err := set.VerifyCtx(cancelled, workers); !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("workers=%d: cancelled set verify returned %v", workers, err)
		}
		if err := set.VerifyCtx(context.Background(), workers); err != nil {
			t.Fatalf("workers=%d: set verify after cancelled attempt: %v", workers, err)
		}
	}
}

func TestShardWriterAppendCtx(t *testing.T) {
	dir := t.TempDir()
	sw := NewShardWriter(dir, "c", 0)
	if err := sw.Append("m1", 3, &byteReader{data: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	// An exporter checks its context before each member (vfs.ExportPackCtx
	// does); once cancelled it starts no further append.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := errs.FromContext(cancelled); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled context maps to %v", err)
	}
	// The shard finalises cleanly with only the completed member.
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := Open(sw.Paths()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Len() != 1 {
		t.Fatalf("shard holds %d members, want 1", p.Len())
	}
	if err := p.VerifyCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// byteReader is a minimal io.Reader over a byte slice (Append sees only
// Read, exactly as external streaming sources present themselves).
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func TestWriterErrorsAreTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pack")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(path)
	if err := w.Append("", 0, &byteReader{}); !errors.Is(err, errs.ErrInvalid) {
		t.Fatalf("empty name: %v, want ErrInvalid", err)
	}
	if err := w.Append("m", -1, &byteReader{}); !errors.Is(err, errs.ErrInvalid) {
		t.Fatalf("negative size: %v, want ErrInvalid", err)
	}
	if err := w.Append("short", 5, &byteReader{data: []byte("abc")}); !errors.Is(err, errs.ErrCorrupt) {
		t.Fatalf("short content: %v, want ErrCorrupt", err)
	}
}
