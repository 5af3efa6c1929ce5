// Package kerneltest is the conformance harness for scan kernels with
// portable state: one entry point pins, for any kernel, every contract
// the distributed scan engine leans on — Fork/Begin/Block/End/Merge
// semantics, block-size independence, snapshot→Restore bit-identity,
// AppendSnapshot appending exactly the snapshot behind any prefix, the
// Merge-drains rule, and the fold-across-a-process-boundary equivalence.
// Each production kernel gets one conformance test in its own package;
// a new kernel earns distribution by passing here, not by review.
package kerneltest

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/fnv64"
	"repro/internal/scan"
)

// BlockSizes are the streaming windows conformance runs at: one byte at
// a time (every state transition crosses a Block boundary), tiny prime
// windows that misalign multi-byte tokens and the kernels' word-at-a-time
// fast paths, a prime just past the analyzer's 64-byte stride (every
// block ends inside one of its windows, too short for a second), the
// page-ish window, and one larger than any sample file (the whole file in
// one Block call).
var BlockSizes = []int{1, 3, 7, 67, 4096, 1 << 20}

// SampleContents returns a corpus exercising the usual hazards: an empty
// file, boundary-straddling tokens, multi-byte runes, sentence
// punctuation, and a file larger than the page-ish block size.
func SampleContents() [][]byte {
	return [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("The quick brown fox! Jumps over the lazy dog? Errors abound. the THE the"),
		[]byte("line one\nline two\nline three with Unknownzz words\n"),
		[]byte("naïve café résumé — “curly” quotes and …ellipsis… 日本語のテキスト"),
		bytes.Repeat([]byte("the error rate is 0.07 per file. Sentences vary! Do they? Yes.\n"), 200),
	}
}

// Prose reshapes the corpus generator's text — lowercase, newline-free
// ASCII whose only punctuation is ',' and '.' — into what written text
// looks like to a tokenizer, deterministically: lines wrapped at 72
// columns, every eighth one indented with a tab as a paragraph's first,
// sentence starts capitalised, and every accentEvery-th 'e' an 'é' — 1000
// for English with the odd loanword, 4 for the one accented letter per 40
// bytes or so of French.
func Prose(text []byte, accentEvery int) []byte {
	out := make([]byte, 0, len(text)+len(text)/64)
	lineStart, lastSpace, lines, es := 0, -1, 0, 0
	capital := true
	for _, c := range text {
		switch {
		case c == '.' || c == '!' || c == '?':
			capital = true
		case capital && c >= 'a' && c <= 'z':
			c -= 'a' - 'A'
			capital = false
		}
		if c == ' ' {
			lastSpace = len(out)
		}
		if c == 'e' {
			es++
		}
		if c == 'e' && es%accentEvery == 0 {
			out = append(out, "é"...)
			lineStart++ // two bytes, one column
		} else {
			out = append(out, c)
		}
		if len(out)-lineStart > 72 && lastSpace >= lineStart {
			out[lastSpace] = '\n'
			lineStart = lastSpace + 1
			if lines++; lines%8 == 0 {
				out = append(out, 0)
				copy(out[lineStart+1:], out[lineStart:])
				out[lineStart] = '\t'
			}
		}
	}
	return out
}

func sources(contents [][]byte) []scan.Source {
	srcs := make([]scan.Source, len(contents))
	for i, c := range contents {
		srcs[i] = scan.Source{Name: fmt.Sprintf("sample-%02d.txt", i), Size: int64(len(c))}
	}
	return srcs
}

// feed drives one file through the kernel's Begin/Block/End cycle at the
// given block size.
func feed(k scan.Kernel, src scan.Source, content []byte, blockSize int) {
	k.Begin(src)
	for off := 0; off < len(content); off += blockSize {
		end := off + blockSize
		if end > len(content) {
			end = len(content)
		}
		k.Block(content[off:end])
	}
	k.End()
}

// feedSum is feed through a carrier's BlockSum, the way a run that
// carries a checksum drives it, and returns the member checksum the
// carrier folded beside its own work.
func feedSum(k scan.Kernel, src scan.Source, content []byte, blockSize int) uint64 {
	c := k.(scan.SumCarrier)
	h := fnv64.MemberInit
	k.Begin(src)
	for off := 0; off < len(content); off += blockSize {
		h = c.BlockSum(h, content[off:min(off+blockSize, len(content))])
	}
	k.End()
	return h
}

// accumulate scans files [lo, hi) the way the engine does — a private
// fork per file, merged in input order into a root fork — and returns
// the root.
func accumulate(t *testing.T, proto scan.Kernel, contents [][]byte, lo, hi, blockSize int) scan.Kernel {
	t.Helper()
	srcs := sources(contents)
	root := proto.Fork()
	for i := lo; i < hi; i++ {
		k := proto.Fork()
		feed(k, srcs[i], contents[i], blockSize)
		root.Merge(k)
	}
	return root
}

// accumulateSum is accumulate over every file through BlockSum, holding
// each file's carried sum to its member checksum.
func accumulateSum(t *testing.T, proto scan.Kernel, contents [][]byte, blockSize int) scan.Kernel {
	t.Helper()
	srcs := sources(contents)
	root := proto.Fork()
	for i, c := range contents {
		k := proto.Fork()
		if got, want := feedSum(k, srcs[i], c, blockSize), fnv64.MemberChecksum(fnv64.MemberInit, c); got != want {
			t.Errorf("%T: BlockSum over %s at block size %d carried %#x, member checksum %#x", proto, srcs[i].Name, blockSize, got, want)
		}
		root.Merge(k)
	}
	return root
}

func snapshot(t *testing.T, k scan.Kernel) []byte {
	t.Helper()
	st, err := scan.SnapshotKernel(k)
	if err != nil {
		t.Fatalf("snapshot %T: %v", k, err)
	}
	return st
}

// Conformance pins the portable-state contract for a mergeable kernel
// prototype over the sample contents (SampleContents when nil):
//
//   - block-size independence: the accumulated snapshot is bit-identical
//     at every BlockSizes entry;
//   - a scan.SumCarrier fed through BlockSum instead of Block snapshots
//     the same bytes at every BlockSizes entry, and the sum it returns is
//     each file's fnv64.MemberChecksum;
//   - AppendSnapshot(prefix) is the prefix unchanged followed by exactly
//     SnapshotKernel's bytes, and reserves nothing when the room is there;
//   - Snapshot→Restore→Snapshot is bit-identical;
//   - an element count the payload cannot hold is ErrCorrupt, and Restore
//     allocates less than twice the payload finding that out;
//   - Merge drains the other kernel back to empty;
//   - process-boundary fold: scanning a prefix and a suffix separately,
//     snapshotting the suffix kernel, restoring it into a fresh fork and
//     merging equals scanning everything in one process.
func Conformance(t *testing.T, proto scan.Kernel, contents [][]byte) {
	t.Helper()
	if _, ok := proto.(scan.StateCodec); !ok {
		t.Fatalf("kernel %T does not implement scan.StateCodec", proto)
	}
	if contents == nil {
		contents = SampleContents()
	}

	// Block-size independence, pinned on snapshot bytes.
	want := snapshot(t, accumulate(t, proto, contents, 0, len(contents), BlockSizes[0]))
	for _, bs := range BlockSizes[1:] {
		got := snapshot(t, accumulate(t, proto, contents, 0, len(contents), bs))
		if !bytes.Equal(got, want) {
			t.Errorf("%T: snapshot at block size %d differs from block size %d", proto, bs, BlockSizes[0])
		}
	}

	// A carrier fed through BlockSum accumulates exactly what Block does,
	// and carries each file's member checksum.
	if _, ok := proto.(scan.SumCarrier); ok {
		for _, bs := range BlockSizes {
			if got := snapshot(t, accumulateSum(t, proto, contents, bs)); !bytes.Equal(got, want) {
				t.Errorf("%T: snapshot through BlockSum at block size %d differs from Block's", proto, bs)
			}
		}
	}

	// Snapshot knows its size from the file count and the names and
	// reserves it, so sixteen times the files cost no more allocations —
	// append-doubling would add four. (A ratio, not a count: the race
	// build moves the encoder itself to the heap.)
	one := accumulate(t, proto, contents, 0, len(contents), BlockSizes[0])
	many := proto.Fork()
	for r := 0; r < 16; r++ {
		many.Merge(accumulate(t, proto, contents, 0, len(contents), BlockSizes[0]))
	}
	allocsOne := testing.AllocsPerRun(10, func() { snapshot(t, one) })
	allocsMany := testing.AllocsPerRun(10, func() { snapshot(t, many) })
	if allocsMany > allocsOne {
		t.Errorf("%T: Snapshot allocations grow with the file count (%.0f for %d files, %.0f for %d): reserve the encoded size up front",
			proto, allocsOne, len(contents), allocsMany, 16*len(contents))
	}

	// AppendSnapshot appends: the prefix comes back as it was, followed by
	// exactly SnapshotKernel's bytes, whether the state fits behind the
	// prefix or has to move it — so a state framed in place into a record
	// is the state a buffer of its own holds. Into a buffer with the room
	// it reserves nothing (fewer allocations than into nil; a ratio again,
	// for the race build).
	prefix := []byte("record header")
	for _, room := range []int{0, len(want)} {
		dst := append(make([]byte, 0, len(prefix)+room), prefix...)
		got, err := one.(scan.StateCodec).AppendSnapshot(dst)
		if err != nil {
			t.Fatalf("%T: AppendSnapshot: %v", proto, err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%T: AppendSnapshot onto a %d-byte prefix with %d bytes of room is not the prefix followed by the snapshot", proto, len(prefix), room)
		}
	}
	roomy := make([]byte, 0, 2*len(want))
	allocsRoom := testing.AllocsPerRun(10, func() { one.(scan.StateCodec).AppendSnapshot(roomy) })
	if allocsRoom >= allocsOne {
		t.Errorf("%T: AppendSnapshot into a buffer with room allocates %.0f times, as many as into nil (%.0f): grow the buffer it is given",
			proto, allocsRoom, allocsOne)
	}

	// Round trip: Restore must rebuild the exact accumulation.
	restored := proto.Fork()
	if err := scan.RestoreKernel(restored, want); err != nil {
		t.Fatalf("%T: restore: %v", proto, err)
	}
	if got := snapshot(t, restored); !bytes.Equal(got, want) {
		t.Errorf("%T: snapshot(restore(snapshot)) differs", proto)
	}

	// Restoring garbage must fail loudly, not silently corrupt.
	if err := scan.RestoreKernel(proto.Fork(), []byte("not a snapshot")); err == nil {
		t.Errorf("%T: restoring garbage succeeded", proto)
	}
	if len(want) > 1 {
		if err := scan.RestoreKernel(proto.Fork(), want[:len(want)-1]); err == nil {
			t.Errorf("%T: restoring a truncated snapshot succeeded", proto)
		}
	}

	// A count that the payload cannot hold must fail before Restore
	// reserves room for it: states arrive from remote workers and
	// journals. The count is the first field in which an empty and a
	// non-empty state differ; here it claims one element per remaining
	// byte, and every element encodes to more than one.
	empty := snapshot(t, proto.Fork())
	at := 1
	for at+8 <= len(empty) && bytes.Equal(empty[at:at+8], want[at:at+8]) {
		at += 8
	}
	const pad = 1 << 20
	var count scan.StateEncoder
	count.Int(pad)
	hostile := append(bytes.Clone(empty[:at]), count.Bytes()...)
	hostile = append(hostile, make([]byte, pad)...)
	target := proto.Fork()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := scan.RestoreKernel(target, hostile)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Errorf("%T: restoring a count of %d over %d bytes returned %v, want ErrCorrupt", proto, pad, pad, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(len(hostile)) {
		t.Errorf("%T: restoring a %d-byte state with a hostile count allocated %d bytes", proto, len(hostile), got)
	}

	// Merge drains: after folding, the other kernel snapshots empty.
	for _, bs := range BlockSizes {
		root := proto.Fork()
		other := accumulate(t, proto, contents, 0, len(contents), bs)
		root.Merge(other)
		if got := snapshot(t, other); !bytes.Equal(got, empty) {
			t.Errorf("%T: merged-from kernel not drained at block size %d", proto, bs)
		}
		if got := snapshot(t, root); !bytes.Equal(got, want) {
			t.Errorf("%T: merge of a whole accumulation differs from direct accumulation", proto)
		}
	}

	// Process-boundary fold at every split point: prefix in "this
	// process", suffix snapshotted, restored into a fork, merged.
	for split := 0; split <= len(contents); split++ {
		for _, bs := range BlockSizes {
			local := accumulate(t, proto, contents, 0, split, bs)
			remote := accumulate(t, proto, contents, split, len(contents), bs)
			carried := snapshot(t, remote)
			fork := proto.Fork()
			if err := scan.RestoreKernel(fork, carried); err != nil {
				t.Fatalf("%T: restore at split %d: %v", proto, split, err)
			}
			local.Merge(fork)
			if got := snapshot(t, local); !bytes.Equal(got, want) {
				t.Errorf("%T: boundary fold at split %d block size %d differs from in-process scan", proto, split, bs)
			}
		}
	}
}

// GarbageStates returns payloads every Restore must reject: wrong tag,
// empty, and high-entropy noise — used by packages wanting extra
// negative cases beyond what Conformance already runs.
func GarbageStates() [][]byte {
	return [][]byte{
		{},
		[]byte{0xFF},
		[]byte(strings.Repeat("\xde\xad\xbe\xef", 16)),
	}
}
