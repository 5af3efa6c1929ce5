package scan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/errs"
)

// rawCorpus builds a deterministic mixed corpus twice over: one source
// slice using the streaming Content path and one using the zero-copy Raw
// path, backed by the same bytes.
func rawCorpus(n int) (streaming, raw []Source) {
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		for j := 0; j < 40+i*13; j++ {
			fmt.Fprintf(&buf, "word%d the quick amazon ec2 reshape %d\n", j, i*j)
		}
		if i%7 == 0 {
			buf.Reset() // empty files ride along
		}
		data := buf.Bytes()
		name := fmt.Sprintf("file-%03d.txt", i)
		streaming = append(streaming, Source{
			Name: name, Size: int64(len(data)),
			Content: OpenFunc(func() (io.Reader, error) { return bytes.NewReader(data), nil }),
		})
		raw = append(raw, Source{
			Name: name, Size: int64(len(data)),
			Raw: BytesFunc(func() ([]byte, error) { return data, nil }),
		})
	}
	return streaming, raw
}

// carryKernel counts occurrences of a fixed pattern across block
// boundaries (bounded carry-over), so block-split differences between the
// streaming and raw paths would change its answer if either path broke
// the windowing contract.
type carryKernel struct {
	pat   []byte
	carry []byte
	count int64
	total int64
}

func newCarryKernel(pat string) *carryKernel { return &carryKernel{pat: []byte(pat)} }

func (k *carryKernel) Fork() Kernel { return &carryKernel{pat: k.pat} }
func (k *carryKernel) Begin(Source) {
	k.carry = k.carry[:0]
	k.count = 0
}
func (k *carryKernel) Block(p []byte) {
	joined := append(k.carry, p...)
	k.count += int64(bytes.Count(joined, k.pat))
	// Subtract matches wholly inside the carry (already counted last block).
	if len(k.carry) >= len(k.pat) {
		k.count -= int64(bytes.Count(k.carry, k.pat))
	}
	keep := len(k.pat) - 1
	if keep > len(joined) {
		keep = len(joined)
	}
	k.carry = append(k.carry[:0], joined[len(joined)-keep:]...)
}
func (k *carryKernel) End() {}
func (k *carryKernel) Merge(other Kernel) {
	k.total += other.(*carryKernel).count
}

// TestRawMatchesStreaming pins the zero-copy path bit-identical to the
// streaming path: same per-file checksums, same cross-block match counts,
// at every worker count and at block sizes down to smaller than the
// pattern.
func TestRawMatchesStreaming(t *testing.T) {
	streaming, raw := rawCorpus(60)
	for _, workers := range []int{1, 2, 8} {
		for _, blockSize := range []int{3, 64, 4096, DefaultBlockSize} {
			opts := Options{Workers: workers, BlockSize: blockSize}
			sc, sk := NewChecksum(), newCarryKernel("amazon")
			if err := Run(context.Background(), streaming, opts, sc, sk); err != nil {
				t.Fatalf("workers=%d block=%d streaming: %v", workers, blockSize, err)
			}
			rc, rk := NewChecksum(), newCarryKernel("amazon")
			if err := Run(context.Background(), raw, opts, rc, rk); err != nil {
				t.Fatalf("workers=%d block=%d raw: %v", workers, blockSize, err)
			}
			if len(sc.Sums()) != len(rc.Sums()) {
				t.Fatalf("workers=%d block=%d: %d streaming sums vs %d raw", workers, blockSize, len(sc.Sums()), len(rc.Sums()))
			}
			for i, s := range sc.Sums() {
				if r := rc.Sums()[i]; s != r {
					t.Fatalf("workers=%d block=%d file %d: streaming %+v != raw %+v", workers, blockSize, i, s, r)
				}
			}
			if sk.total != rk.total {
				t.Fatalf("workers=%d block=%d: streaming matched %d, raw matched %d", workers, blockSize, sk.total, rk.total)
			}
			if sk.total == 0 {
				t.Fatal("corpus produced zero matches; test is vacuous")
			}
		}
	}
}

// TestRawSizeMismatchIsCorrupt: a Raw source whose bytes disagree with
// the declared size is reported as corruption, same as the streaming
// path.
func TestRawSizeMismatchIsCorrupt(t *testing.T) {
	srcs := []Source{{
		Name: "liar.txt", Size: 10,
		Raw: BytesFunc(func() ([]byte, error) { return []byte("short"), nil }),
	}}
	err := Run(context.Background(), srcs, Options{Workers: 1}, NewChecksum())
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Fatalf("size-lying raw source returned %v, want ErrCorrupt", err)
	}
}

// TestRawErrorPropagates: a Raw source that fails to produce bytes
// surfaces its error with the source name attached.
func TestRawErrorPropagates(t *testing.T) {
	boom := errors.New("mapping gone")
	srcs := []Source{{
		Name: "gone.txt", Size: 3,
		Raw: BytesFunc(func() ([]byte, error) { return nil, boom }),
	}}
	err := Run(context.Background(), srcs, Options{Workers: 1}, NewChecksum())
	if !errors.Is(err, boom) {
		t.Fatalf("raw open failure returned %v, want wrapped %v", err, boom)
	}
}

// TestInt64ArenaCopy pins the arena's contract: rows are exact,
// capacity-clamped copies that never alias each other — including across
// a slab boundary — and the slabs are actually shared, so the allocation
// count follows total elements, not rows.
func TestInt64ArenaCopy(t *testing.T) {
	var a Int64Arena
	// Three-element rows do not divide the slab evenly, so some row
	// straddles the point where the arena must start a fresh slab.
	const rowsN = 2*DefaultArenaSize/3 + 20
	rows := make([][]int64, 0, rowsN)
	for i := 0; i < rowsN; i++ {
		src := []int64{int64(i), int64(i * 2), int64(i * 3)}
		rows = append(rows, a.Copy(src))
		src[0] = -1 // the arena must have copied, not retained
	}
	for i, row := range rows {
		want := []int64{int64(i), int64(i * 2), int64(i * 3)}
		for j := range want {
			if row[j] != want[j] {
				t.Fatalf("row %d = %v, want %v", i, row, want)
			}
		}
		if cap(row) != len(row) {
			t.Fatalf("row %d capacity %d leaks past its length %d", i, cap(row), len(row))
		}
	}
	// Appending to a carved row must not corrupt its neighbours.
	_ = append(rows[0], 999)
	if rows[1][0] != 1 {
		t.Fatal("append to one arena row bled into the next")
	}
	if a.Copy(nil) != nil {
		t.Fatal("Copy(nil) should return nil")
	}
	// Oversized rows get a dedicated slab rather than failing.
	big := make([]int64, DefaultArenaSize+100)
	big[len(big)-1] = 7
	got := a.Copy(big)
	if len(got) != len(big) || got[len(big)-1] != 7 {
		t.Fatalf("oversized copy = len %d last %d", len(got), got[len(got)-1])
	}

	// The arena's one job: 4 096 eight-element rows are 32 768 elements,
	// eight slabs' worth. One allocation per row (the regression this
	// guards) would read 4 096.
	row := make([]int64, 8)
	allocs := testing.AllocsPerRun(5, func() {
		var a Int64Arena
		for i := 0; i < 4096; i++ {
			a.Copy(row)
		}
	})
	if allocs > 9 {
		t.Fatalf("4096 copies of an 8-element row allocated %.0f times, want <= 9 slabs", allocs)
	}
}

// TestStreamingBufferRecyclingUnderRace is the contract canary for
// "kernels must not retain Block bytes": well-behaved copying kernels run
// at workers=8 over many files while block buffers are poisoned (under
// the scandebug tag) and recycled across goroutines. `make verify` runs
// this under -race, where a retention bug in any registered kernel shows
// up as a data race on the pooled buffer.
func TestStreamingBufferRecyclingUnderRace(t *testing.T) {
	streaming, raw := rawCorpus(120)
	opts := Options{Workers: 8, BlockSize: 256}
	sc := NewChecksum()
	if err := Run(context.Background(), streaming, opts, sc, newCarryKernel("the")); err != nil {
		t.Fatal(err)
	}
	rc := NewChecksum()
	if err := Run(context.Background(), raw, opts, rc, newCarryKernel("the")); err != nil {
		t.Fatal(err)
	}
	for i := range sc.Sums() {
		if sc.Sums()[i] != rc.Sums()[i] {
			t.Fatalf("file %d: streaming %+v != raw %+v", i, sc.Sums()[i], rc.Sums()[i])
		}
	}
}
