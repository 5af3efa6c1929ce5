package scan

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChunkBounds pins how Run groups sources: contiguous, covering,
// sized from the corpus's bytes and the worker count, and never grouping
// unit-file-sized sources.
func TestChunkBounds(t *testing.T) {
	sized := func(n int, size int64) []Source {
		srcs := make([]Source, n)
		for i := range srcs {
			srcs[i].Size = size
		}
		return srcs
	}
	mixed := sized(100, 500)
	mixed[40].Size = 1 << 20 // one unit file among small ones
	mixed[41].Size = 0
	cases := []struct {
		name    string
		srcs    []Source
		workers int
		chunks  int
	}{
		{"empty", nil, 4, 0},
		{"single", sized(1, 10), 8, 1},
		{"all-empty-files", sized(50, 0), 2, 1},
		// The packed "after" state: every 1 MiB unit is its own chunk, so
		// dispatch is file by file exactly as without chunking.
		{"unit-files", sized(25, 1<<20), 2, 25},
		{"near-unit-files", sized(25, 1<<20-4096), 2, 25},
		// The small-file "before" state: 12 000 files, a couple of dozen
		// chunks at the byte cap.
		{"small-files", sized(12000, 2048), 2, 24},
		// Below the cap the worker count sets the grain.
		{"small-corpus-w1", sized(1600, 100), 1, 8},
		{"small-corpus-w4", sized(1600, 100), 4, 32},
		// One oversized source among small ones closes the chunk before
		// it and is a chunk of its own: 40 files, the unit file, then its
		// empty neighbour with the remaining 58.
		{"mixed", mixed, 2, 3},
	}
	for _, tc := range cases {
		b := chunkBounds(tc.srcs, tc.workers)
		if got := len(b) - 1; got != tc.chunks {
			t.Errorf("%s: %d chunks, want %d (bounds %v)", tc.name, got, tc.chunks, b)
		}
		if b[0] != 0 || b[len(b)-1] != len(tc.srcs) {
			t.Errorf("%s: bounds %v do not cover [0, %d)", tc.name, b, len(tc.srcs))
		}
		for c := 1; c < len(b); c++ {
			if b[c] <= b[c-1] {
				t.Errorf("%s: empty or reversed chunk at %d: %v", tc.name, c, b)
			}
		}
	}
}

// forkCounter counts Fork calls on its prototype and files seen.
type forkCounter struct {
	forks *atomic.Int64
	files int
}

func (k *forkCounter) Fork() Kernel { k.forks.Add(1); return &forkCounter{forks: k.forks} }
func (k *forkCounter) Begin(Source) {}
func (k *forkCounter) Block([]byte) {}
func (k *forkCounter) End()         { k.files++ }
func (k *forkCounter) Merge(other Kernel) {
	o := other.(*forkCounter)
	k.files += o.files
	o.files = 0
}

// TestRunForksPerChunkNotPerFile is the regression for the merge
// frontier's run-ahead cost. The very first source stalls until the last
// one has been delivered, so at Workers: 2 one worker sits in chunk 0
// while its peer scans every other chunk and parks each behind the
// frontier. Parking per file forked a kernel set per run-ahead file —
// 10 000 here; parking per chunk can fork at most one per chunk.
func TestRunForksPerChunkNotPerFile(t *testing.T) {
	const n = 10000
	payload := []byte("tiny file.")
	release := make(chan struct{})
	var once sync.Once
	srcs := make([]Source, n)
	for i := range srcs {
		raw := BytesFunc(func() ([]byte, error) { return payload, nil })
		switch i {
		case 0:
			raw = func() ([]byte, error) {
				select {
				case <-release:
				case <-time.After(30 * time.Second):
					t.Error("stalled source was never released: the last source did not run")
				}
				return payload, nil
			}
		case n - 1:
			raw = func() ([]byte, error) {
				once.Do(func() { close(release) })
				return payload, nil
			}
		}
		srcs[i] = Source{Name: fmt.Sprintf("f%05d", i), Size: int64(len(payload)), Raw: raw}
	}
	chunks := len(chunkBounds(srcs, 2)) - 1
	if chunks < 2 || chunks > n/100 {
		t.Fatalf("corpus forms %d chunks; the test needs several, far fewer than %d files", chunks, n)
	}

	proto := &forkCounter{forks: new(atomic.Int64)}
	if err := Run(context.Background(), srcs, Options{Workers: 2}, proto); err != nil {
		t.Fatal(err)
	}
	if proto.files != n {
		t.Fatalf("merged %d files, want %d", proto.files, n)
	}
	if forks := proto.forks.Load(); forks > int64(chunks) {
		t.Fatalf("forked %d kernel sets for %d chunks (%d files): run-ahead must cost one set per chunk at most", forks, chunks, n)
	}
}
