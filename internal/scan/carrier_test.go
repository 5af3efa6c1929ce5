package scan_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/scan"
	"repro/internal/textproc"
)

// countingCarrier is a MatchKernel that counts its BlockSum calls, so the
// test can tell which kernel carried the checksum — or that none did.
type countingCarrier struct {
	*textproc.MatchKernel
	calls *atomic.Int64
}

func (c countingCarrier) Fork() scan.Kernel {
	return countingCarrier{c.MatchKernel.Fork().(*textproc.MatchKernel), c.calls}
}

func (c countingCarrier) Merge(other scan.Kernel) {
	c.MatchKernel.Merge(other.(countingCarrier).MatchKernel)
}

func (c countingCarrier) BlockSum(h uint64, p []byte) uint64 {
	c.calls.Add(1)
	return c.MatchKernel.BlockSum(h, p)
}

// carrierCorpus is text with pattern hits: empty files, files shorter than
// a pattern, and one past DefaultBlockSize so the default block splits it.
func carrierCorpus() [][]byte {
	line := []byte("the president said the market report and the city nation error. ")
	var contents [][]byte
	for i := 0; i < 40; i++ {
		contents = append(contents, bytes.Repeat(line, i%9)[:(i*37)%(len(line)*(i%9)+1)])
	}
	return append(contents, []byte("th"), bytes.Repeat(line, 3*scan.DefaultBlockSize/len(line)))
}

// TestCarriedChecksumEqualsChecksumAlone: a checksum the matcher carries
// (scan.SumCarrier) gives every file the sum a checksum-only run and
// hash/fnv give it, and the matcher's counts and snapshot do not move —
// at workers 1, 2 and 8, over raw and streaming sources, at block size 3
// and the default, with the carrier registered before or after the
// checksum, with a second carrier in the set (only one carries), and with
// no checksum to carry.
func TestCarriedChecksumEqualsChecksumAlone(t *testing.T) {
	contents := carrierCorpus()
	streaming := make([]scan.Source, len(contents))
	raw := make([]scan.Source, len(contents))
	for i, c := range contents {
		name := fmt.Sprintf("file-%03d", i)
		streaming[i] = scan.Source{Name: name, Size: int64(len(c)),
			Content: scan.OpenFunc(func() (io.Reader, error) { return bytes.NewReader(c), nil })}
		raw[i] = scan.Source{Name: name, Size: int64(len(c)),
			Raw: scan.BytesFunc(func() ([]byte, error) { return c, nil })}
	}
	bitap, err := textproc.NewMultiSearcher([]string{"the", "and", "president", "market", "city", "nation", "report", "error"})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := textproc.NewMultiSearcher([]string{"the", "and", "president", "market", "city", "nation", "report", "error", "said the market", "city nation error"})
	if err != nil {
		t.Fatal(err)
	}

	for _, srcKind := range []struct {
		name string
		srcs []scan.Source
	}{{"streaming", streaming}, {"raw", raw}} {
		for _, workers := range []int{1, 2, 8} {
			for _, block := range []int{3, 0} {
				tag := fmt.Sprintf("%s workers=%d block=%d", srcKind.name, workers, block)
				opts := scan.Options{Workers: workers, BlockSize: block}
				run := func(kernels ...scan.Kernel) {
					t.Helper()
					if err := scan.Run(context.Background(), srcKind.srcs, opts, kernels...); err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
				}
				alone := scan.NewChecksum()
				run(alone)
				for i, s := range alone.Sums() {
					h := fnv.New64a()
					h.Write(contents[i])
					if s.Sum != h.Sum64() {
						t.Fatalf("%s: checksum-only run gives %s %#x, hash/fnv %#x", tag, s.Name, s.Sum, h.Sum64())
					}
				}
				// What the matchers accumulate when nothing rides them.
				plainBitap, plainAC := textproc.NewMatchKernel(bitap), textproc.NewMatchKernel(ac)
				run(plainBitap, plainAC)
				wantBitap, wantAC := snapshot(t, plainBitap), snapshot(t, plainAC)

				newCarrier := func(ms *textproc.MultiSearcher) countingCarrier {
					return countingCarrier{textproc.NewMatchKernel(ms), new(atomic.Int64)}
				}
				for _, c := range []struct {
					name     string
					kernels  func(ck *scan.Checksum, first, second countingCarrier) []scan.Kernel
					carrying int // which carrier's BlockSum runs: 0 none, 1 first, 2 second
					checksum bool
					second   bool // whether the Aho–Corasick carrier is registered
				}{
					{"checksum-then-carrier", func(ck *scan.Checksum, a, _ countingCarrier) []scan.Kernel { return []scan.Kernel{ck, a} }, 1, true, false},
					{"carrier-then-checksum", func(ck *scan.Checksum, a, _ countingCarrier) []scan.Kernel { return []scan.Kernel{a, ck} }, 1, true, false},
					{"two-carriers", func(ck *scan.Checksum, a, b countingCarrier) []scan.Kernel { return []scan.Kernel{a, ck, b} }, 1, true, true},
					{"ac-carrier-first", func(ck *scan.Checksum, a, b countingCarrier) []scan.Kernel { return []scan.Kernel{b, a, ck} }, 2, true, true},
					{"no-checksum", func(_ *scan.Checksum, a, b countingCarrier) []scan.Kernel { return []scan.Kernel{a, b} }, 0, false, true},
				} {
					ck, first, second := scan.NewChecksum(), newCarrier(bitap), newCarrier(ac)
					run(c.kernels(ck, first, second)...)
					if c.checksum && !reflect.DeepEqual(ck.Sums(), alone.Sums()) {
						t.Errorf("%s %s: carried checksums differ from a checksum-only run", tag, c.name)
					}
					if got := snapshot(t, first.MatchKernel); !bytes.Equal(got, wantBitap) {
						t.Errorf("%s %s: bitap matcher's snapshot differs from an uncarried run", tag, c.name)
					}
					if got := snapshot(t, second.MatchKernel); c.second && !bytes.Equal(got, wantAC) {
						t.Errorf("%s %s: Aho–Corasick matcher's snapshot differs from an uncarried run", tag, c.name)
					}
					calls := [3]int64{0, first.calls.Load(), second.calls.Load()}
					for k := 1; k <= 2; k++ {
						if carried := calls[k] > 0; carried != (k == c.carrying) {
							t.Errorf("%s %s: carrier %d had %d BlockSum calls, want them only on carrier %d", tag, c.name, k, calls[k], c.carrying)
						}
					}
				}
			}
		}
	}
}

func snapshot(t *testing.T, k scan.Kernel) []byte {
	t.Helper()
	st, err := scan.SnapshotKernel(k)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
