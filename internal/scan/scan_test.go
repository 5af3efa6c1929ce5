package scan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/errs"
	"repro/internal/vfs"
)

// testCorpus is a deterministic set of sources with varied sizes,
// including empty files.
func testCorpus(n int) ([]Source, [][]byte) {
	srcs := make([]Source, n)
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		size := (i * 137) % 1000
		if i%7 == 3 {
			size = 0
		}
		data := make([]byte, size)
		for j := range data {
			data[j] = byte((i*31 + j*7) % 251)
		}
		payloads[i] = data
		srcs[i] = vfs.BytesFile(fmt.Sprintf("file-%04d", i), data)
	}
	return srcs, payloads
}

func refSum(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

func TestRunChecksumMatchesReferenceAtAnyWorkerCount(t *testing.T) {
	srcs, payloads := testCorpus(40)
	for _, workers := range []int{1, 2, 8} {
		for _, block := range []int{0, 1, 7, 64} {
			ck := NewChecksum()
			err := Run(context.Background(), srcs, Options{Workers: workers, BlockSize: block}, ck)
			if err != nil {
				t.Fatalf("workers=%d block=%d: %v", workers, block, err)
			}
			sums := ck.Sums()
			if len(sums) != len(srcs) {
				t.Fatalf("workers=%d: %d sums, want %d", workers, len(sums), len(srcs))
			}
			for i, s := range sums {
				if s.Name != srcs[i].Name {
					t.Fatalf("workers=%d: sum %d is %q, want %q (merge order broken)",
						workers, i, s.Name, srcs[i].Name)
				}
				if want := refSum(payloads[i]); s.Sum != want {
					t.Fatalf("workers=%d block=%d: %s sum %x, want %x",
						workers, block, s.Name, s.Sum, want)
				}
			}
		}
	}
}

func TestRunValidatesDeclaredSize(t *testing.T) {
	short := vfs.NewContentFile("short", 10, vfs.Opener(func() (io.Reader, error) { return bytes.NewReader([]byte("abc")), nil }))
	long := vfs.NewContentFile("long", 2, vfs.Opener(func() (io.Reader, error) { return bytes.NewReader([]byte("abcdef")), nil }))
	for _, src := range []Source{short, long} {
		err := Run(context.Background(), []Source{src}, Options{}, NewChecksum())
		if !errors.Is(err, errs.ErrCorrupt) {
			t.Fatalf("%s: Run returned %v, want ErrCorrupt", src.Name, err)
		}
	}
}

func TestRunRequiresKernelsAndContent(t *testing.T) {
	srcs, _ := testCorpus(3)
	if err := Run(context.Background(), srcs, Options{}); !errors.Is(err, errs.ErrInvalid) {
		t.Fatalf("no kernels: %v, want ErrInvalid", err)
	}
	meta := Source{Name: "meta", Size: 5}
	if err := Run(context.Background(), []Source{meta}, Options{}, NewChecksum()); !errors.Is(err, errs.ErrInvalid) {
		t.Fatalf("metadata-only: %v, want ErrInvalid", err)
	}
}

func TestRunCancellation(t *testing.T) {
	srcs, _ := testCorpus(32)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		err := Run(cancelled, srcs, Options{Workers: workers}, NewChecksum())
		if !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("workers=%d: %v, want ErrCancelled", workers, err)
		}
	}
}

func TestRunReportsLowestFailingIndex(t *testing.T) {
	srcs, _ := testCorpus(12)
	boom := errors.New("boom")
	srcs[3] = vfs.NewContentFile(srcs[3].Name, srcs[3].Size, vfs.Opener(func() (io.Reader, error) { return nil, fmt.Errorf("three: %w", boom) }))
	srcs[9] = vfs.NewContentFile(srcs[9].Name, srcs[9].Size, vfs.Opener(func() (io.Reader, error) { return nil, errors.New("nine") }))
	err := Run(context.Background(), srcs, Options{Workers: 4}, NewChecksum())
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the lowest failing index's error (index 3)", err)
	}
}

func TestSequentialOrder(t *testing.T) {
	srcs := []Source{
		vfs.NewMemberFile("c", 0, "s2.pack", 10),
		vfs.NewMemberFile("a", 0, "s1.pack", 500),
		{Name: "plain"},
		vfs.NewMemberFile("b", 0, "s1.pack", 20),
		vfs.NewMemberFile("d", 0, "s2.pack", 5),
	}
	got := SequentialOrder(srcs)
	want := []string{"plain", "b", "a", "d", "c"}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, got[i].Name, name, names(got))
		}
	}
	// Input untouched.
	if srcs[0].Name != "c" {
		t.Fatal("SequentialOrder mutated its input")
	}
	// No locality: same slice back, order preserved.
	plain := []Source{{Name: "y"}, {Name: "x"}}
	if out := SequentialOrder(plain); &out[0] != &plain[0] {
		t.Fatal("unsharded input should be returned as-is")
	}
}

func names(srcs []Source) []string {
	out := make([]string, len(srcs))
	for i, s := range srcs {
		out[i] = s.Name
	}
	return out
}

// shortReader returns at most 3 bytes per Read — the scan loop must
// tolerate readers that never fill the block buffer.
type shortReader struct {
	data []byte
	off  int
}

func (r *shortReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := 3
	if n > len(p) {
		n = len(p)
	}
	n = copy(p[:n], r.data[r.off:])
	r.off += n
	return n, nil
}

func TestRunHandlesShortReads(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	src := vfs.NewContentFile("short-reads", int64(len(data)), vfs.Opener(func() (io.Reader, error) { return &shortReader{data: data}, nil }))
	ck := NewChecksum()
	if err := Run(context.Background(), []Source{src}, Options{}, ck); err != nil {
		t.Fatal(err)
	}
	if got := ck.Sums()[0].Sum; got != refSum(data) {
		t.Fatalf("short-read sum %x, want %x", got, refSum(data))
	}
}
