// Package scan is the fused single-pass scan engine: it reads each input
// file's bytes exactly once through a pooled block buffer and feeds every
// registered kernel per block, so a run that checksums, greps and measures
// text statistics costs one open and one streaming read per file instead of
// one per kernel. The paper's whole premise is that per-file overhead — not
// compute — dominates text processing over many-small-file corpora; pass
// fusion removes the software re-introduction of that overhead.
//
// Determinism contract: results are bit-identical at any worker count,
// including 1, because
//
//   - every file is scanned by exactly one worker into a private kernel set
//     (forked from the registered prototypes, recycled through a free list),
//     which accumulates one contiguous chunk of the input in input order,
//   - each chunk's kernel state is merged into the prototypes strictly in
//     input order (a merge frontier advances as chunks complete, regardless
//     of which worker finished them first), and every kernel's Merge is an
//     in-order append plus associative integer folds, so where the chunk
//     boundaries fall — they move with the worker count — cannot show in
//     the result, and
//   - dispatch, fast-fail and cancellation semantics are par.Pool's:
//     the reported error is the one from the lowest failing index, and
//     Ctx cancellation maps to the typed errs sentinels.
//
// Kernels own the block-boundary problem: a kernel whose unit of work can
// straddle two Block calls must carry the straddle itself — bounded
// carry-over bytes (literal matchers keep at most len(pattern)-1 bytes),
// automaton state (Aho–Corasick needs only its node index), or an
// in-flight token buffer (the text-stats analyzer). The engine never
// re-delivers bytes.
package scan

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/errs"
	"repro/internal/par"
	"repro/internal/vfs"
)

// DefaultBlockSize is the streaming window used when Options.BlockSize is
// zero: large enough to amortise per-block kernel dispatch, small enough
// that a worker set's resident buffer stays cache-friendly.
const DefaultBlockSize = 128 * 1024

// Source is one scannable input: a vfs.File, so a scan reads the file
// list an import or a generator returns as it is, with no record of its
// own per file. The engine reads a file with a raw view (HasRaw) through
// Bytes — kernels are fed borrowed windows of that slice and the file is
// never opened, so no block buffer is used at all — and any other file
// through one Open and a streaming read into a pooled buffer. A file's
// pack locality (Locality) lets SequentialOrder keep reads sequential on
// disk.
type Source = vfs.File

// Kernel is a streaming computation fed one file at a time. The engine
// drives the cycle Begin(file) → Block(bytes)* → End() on a forked
// instance — End folds the completed file into the instance's own
// accumulation — then hands that instance to the registered prototype's
// Merge, always in input order. Merge folds the other kernel's entire
// accumulation (one chunk of files for an engine-forked instance, a whole
// shard's worth for one restored via StateCodec) and drains it, so
// recycled instances start empty.
//
// Block receives a window of the file's bytes, valid only for the
// duration of the call; kernels MUST NOT retain it (not even until End).
// On the streaming path the window is a pooled buffer that another
// worker will overwrite; on the zero-copy path it borrows a memory
// mapping that is unmapped when the pack reader closes. A kernel that
// needs bytes past the call must copy them into its own state (the
// stream analyzer's in-flight word buffer is the model). Builds with the
// `scandebug` tag poison recycled buffers with 0xDB so retention bugs
// surface as garbage instead of silent corruption; `go test -race` runs
// catch cross-worker retention. Merge is called on the prototype only,
// never concurrently.
type Kernel interface {
	// Fork returns a fresh instance sharing the receiver's read-only
	// configuration (pattern automata, lexicons) but no accumulation.
	Fork() Kernel
	// Begin resets the kernel for a new file.
	Begin(src Source)
	// Block feeds the next window of the file's bytes.
	Block(p []byte)
	// End marks the file complete; the kernel finalises the per-file
	// state and folds it into its own accumulation.
	End()
	// Merge folds the other kernel's (same concrete type) accumulated
	// results into the receiver and drains the other. The engine
	// guarantees input order and never calls Merge concurrently.
	Merge(other Kernel)
}

// SumCarrier is a kernel whose per-byte loop can carry the member checksum
// beside its own work: BlockSum(h, p) has exactly Block(p)'s effect on the
// kernel and returns fnv64.MemberChecksum(h, p). When a run's kernels hold
// a *Checksum and a carrier, Run feeds the carrier through BlockSum with
// the checksum's running state instead of calling both Blocks, so the
// checksum's xor-multiply chain shares the carrier's loop rather than
// paying a pass of its own. Begin, End, Merge and the state codec of both
// kernels are untouched, and so is every bit they accumulate.
type SumCarrier interface {
	BlockSum(h uint64, p []byte) uint64
}

// Reserver is a kernel that keeps one row per scanned file and can size
// that accumulation up front: Reserve(n) makes room for n more per-file
// rows, so appending them never grows the slice again. Run reserves on
// its prototypes, which end up holding every file's row; the distributed
// coordinator reserves a whole plan's sources on its own. Forks are never
// reserved: an engine fork holds one chunk and is recycled with its
// capacity, and a restored fork sizes itself from its state. Reserving
// changes no result, only how often the rows are copied on the way there.
type Reserver interface {
	Reserve(n int)
}

// kernelSet is one worker's forked kernels and the way a window reaches
// them: every kernel in all sees Begin, End and Merge in registration
// order; a window goes to the carrier through BlockSum when the set
// carries its checksum, and to the rest through Block.
type kernelSet struct {
	all     []Kernel
	block   []Kernel // all but a carried checksum and its carrier
	sum     *Checksum
	carrier SumCarrier
}

// carriedChecksum is the one decision a run makes about carrying, from
// its prototypes and before it forks anything: the positions of the first
// *Checksum and the first SumCarrier, or -1 for both when the kernels
// lack either.
func carriedChecksum(kernels []Kernel) (sum, carrier int) {
	sum, carrier = -1, -1
	for i, k := range kernels {
		switch k.(type) {
		case *Checksum:
			if sum < 0 {
				sum = i
			}
		case SumCarrier:
			if carrier < 0 {
				carrier = i
			}
		}
	}
	if sum < 0 || carrier < 0 {
		return -1, -1
	}
	return sum, carrier
}

// forkSet forks every prototype into a new set, routing windows as
// carriedChecksum decided.
func forkSet(kernels []Kernel, sum, carrier int) *kernelSet {
	s := &kernelSet{all: make([]Kernel, len(kernels))}
	for i, k := range kernels {
		f := k.Fork()
		s.all[i] = f
		switch i {
		case sum:
			s.sum = f.(*Checksum)
		case carrier:
			s.carrier = f.(SumCarrier)
		default:
			s.block = append(s.block, f)
		}
	}
	return s
}

// feed delivers the next window of the current file to the set.
func (s *kernelSet) feed(p []byte) {
	if s.carrier != nil {
		s.sum.h = s.carrier.BlockSum(s.sum.h, p)
	}
	for _, k := range s.block {
		k.Block(p)
	}
}

// Options configures a scan run.
type Options struct {
	// Workers bounds the fan-out (0 or negative = GOMAXPROCS; 1 = serial).
	Workers int
	// BlockSize is the streaming window in bytes (0 = DefaultBlockSize).
	BlockSize int
}

// maxChunkBytes caps a merge-frontier chunk's declared bytes, and
// chunksPerWorker is how many chunks each worker should get to claim
// when the corpus is small enough for the cap not to bind: enough that a
// slow chunk cannot leave a peer idle for long, few enough that the
// per-chunk costs (a kernel-set claim, a slot, one Merge per kernel) stay
// far below the per-file costs they replace. The cap also bounds what a
// parked chunk holds behind the frontier.
const (
	maxChunkBytes   = 1 << 20
	chunksPerWorker = 8
)

// chunkBounds partitions srcs into contiguous chunks and returns their
// boundaries: chunk c is srcs[b[c]:b[c+1]]. The target size is the
// corpus's declared bytes spread over chunksPerWorker chunks per worker,
// capped at maxChunkBytes; a chunk closes before the source that would
// take it past the target, so a source at or over the target is a chunk
// of its own and large unit files dispatch one by one. The boundaries
// depend on the worker count, the results do not: chunks only group
// consecutive sources, and Run merges them in input order.
func chunkBounds(srcs []Source, workers int) []int {
	var total int64
	for i := range srcs {
		total += srcs[i].Size
	}
	target := min(total/int64(workers*chunksPerWorker), maxChunkBytes)
	bounds := []int{0}
	var bytes int64
	for i := range srcs {
		if i > bounds[len(bounds)-1] && bytes+srcs[i].Size > target {
			bounds = append(bounds, i)
			bytes = 0
		}
		bytes += srcs[i].Size
	}
	if len(srcs) > 0 {
		bounds = append(bounds, len(srcs))
	}
	return bounds
}

// Run scans every source exactly once, feeding all kernels per block, and
// merges the results into the kernel prototypes in input order. On error
// (lowest failing index, per the par contract) or cancellation the
// prototypes hold an unspecified prefix of the results and must be
// discarded. Completed runs are bit-identical at any worker count.
//
// Workers claim contiguous chunks of sources (chunkBounds), not single
// files: a whole chunk is scanned into one forked kernel set — End folds
// each file into the set's own accumulation — and the set is parked,
// merged and recycled once per chunk. A corpus of small files therefore
// pays one set claim, one lock round trip and one Merge per kernel per
// chunk instead of per file, while a corpus of large unit files, each a
// chunk of its own, dispatches exactly file by file.
//
// Run decides once, from the kernels it is given, whether a checksum
// rides a carrier (SumCarrier); nothing else about a run changes with it.
// Before dispatch it reserves len(srcs) rows on every Reserver prototype.
func Run(ctx context.Context, srcs []Source, opts Options, kernels ...Kernel) error {
	if len(kernels) == 0 {
		return errs.Invalid("scan: no kernels registered")
	}
	blockSize := opts.BlockSize
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	for _, k := range kernels {
		if r, ok := k.(Reserver); ok {
			r.Reserve(len(srcs))
		}
	}
	pool := par.New(opts.Workers)
	bounds := chunkBounds(srcs, pool.Workers())
	n := len(bounds) - 1

	// Pooled scratch: block buffers and forked kernel sets. A set is
	// forked only when the free list is empty, and every claimed set is
	// either merged and recycled or parked in its chunk's slot behind the
	// merge frontier, so a run forks at most one set per chunk — the
	// worst case, reached when the first chunk stalls while its peers
	// scan every other one — and a couple per worker when chunks complete
	// roughly in order. Never one per file.
	bufs := sync.Pool{New: func() any {
		b := make([]byte, blockSize)
		return &b
	}}
	var mu sync.Mutex
	var free []*kernelSet
	slots := make([]*kernelSet, n)
	frontier := 0
	sum, carrier := carriedChecksum(kernels)

	fork := func() *kernelSet {
		mu.Lock()
		if k := len(free) - 1; k >= 0 {
			set := free[k]
			free = free[:k]
			mu.Unlock()
			return set
		}
		mu.Unlock()
		return forkSet(kernels, sum, carrier)
	}

	return pool.ForEachCtx(ctx, n, func(c int) error {
		set := fork()
		for i := bounds[c]; i < bounds[c+1]; i++ {
			// Cancellation latency stays one file, not one chunk.
			if err := errs.FromContext(ctx); err != nil {
				return err
			}
			if err := scanFile(&srcs[i], set, blockSize, &bufs); err != nil {
				// The set holds the chunk's earlier files; it is dropped,
				// not recycled, and the run's results are void anyway.
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		slots[c] = set
		// Advance the merge frontier: every contiguously-completed chunk
		// is folded into the prototypes in input order and its set
		// recycled.
		for frontier < n && slots[frontier] != nil {
			done := slots[frontier]
			slots[frontier] = nil
			for j, k := range done.all {
				kernels[j].Merge(k)
			}
			free = append(free, done)
			frontier++
		}
		return nil
	})
}

// scanFile is the per-file frame around both delivery paths: Begin on
// every kernel, the source's bytes in windows, the count of what arrived
// held against the declared size — short or over-long content is as
// corrupt here as it is in vfs.ReadInto — and End on every kernel. A
// source with a raw view is delivered from it and never opened; any other
// streams through a pooled buffer. Both loops hand each window to the
// set's one feed, so a carried checksum rides either. src points into the
// run's own slice, so no file is copied to reach its bytes.
func scanFile(src *Source, set *kernelSet, blockSize int, bufs *sync.Pool) error {
	for _, k := range set.all {
		k.Begin(*src)
	}
	var n int64
	var err error
	if src.HasRaw() {
		n, err = deliverRaw(src, set, blockSize)
	} else {
		bp := bufs.Get().(*[]byte)
		n, err = deliverStream(src, set, *bp)
		poison(*bp)
		bufs.Put(bp)
	}
	if err != nil {
		return err
	}
	if n != src.Size {
		return errs.Corrupt("scan: %q declared %d bytes but content has %d", src.Name, src.Size, n)
	}
	for _, k := range set.all {
		k.End()
	}
	return nil
}

// deliverRaw feeds a zero-copy source to the kernel set: the complete
// content comes back as one borrowed slice and kernels see it in
// blockSize windows — subslices of the original, nothing copied, no
// buffer recycled. It returns the bytes delivered.
func deliverRaw(src *Source, set *kernelSet, blockSize int) (int64, error) {
	data, err := src.Bytes()
	if err != nil {
		return 0, fmt.Errorf("scan: raw open %q: %w", src.Name, err)
	}
	for off := 0; off < len(data); off += blockSize {
		set.feed(data[off:min(off+blockSize, len(data))])
	}
	return int64(len(data)), nil
}

// deliverStream streams a source through the kernel set: exactly one
// Open, one pass of reads into buf, one Close. It returns the bytes
// delivered.
func deliverStream(src *Source, set *kernelSet, buf []byte) (int64, error) {
	if !src.HasContent() {
		return 0, errs.Invalid("scan: source %q has no content", src.Name)
	}
	r, err := src.Open()
	if err != nil {
		return 0, fmt.Errorf("scan: open %q: %w", src.Name, err)
	}
	var total int64
	var rerr error
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			set.feed(buf[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rerr = fmt.Errorf("scan: reading %q: %w", src.Name, err)
			break
		}
	}
	if c, ok := r.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && rerr == nil {
			rerr = fmt.Errorf("scan: closing %q: %w", src.Name, cerr)
		}
	}
	return total, rerr
}
