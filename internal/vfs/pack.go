package vfs

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/par"
)

// Pack round-trips: a reshaped corpus exported as pack shards instead of
// one plain file per unit keeps the paper's gains on disk — re-importing
// costs a handful of opens however many members there are, and every
// member stays individually checksummed and randomly accessible.

// PackOptions configures ExportPackCtx.
type PackOptions struct {
	// Prefix names the shard files "<Prefix>-<seq>.pack". Default "corpus".
	Prefix string
	// ShardSize is the target payload bytes per shard; members are never
	// split, so a shard holds at least one member however large. <= 0
	// means a single unbounded shard. Default 256 MB.
	ShardSize int64
	// Workers is the number of loader goroutines that materialise and
	// checksum members ahead of the one goroutine that writes them
	// (0 = GOMAXPROCS). The written bytes are identical at any worker
	// count: loading is concurrent, appending is in List order.
	Workers int
}

func (o *PackOptions) fillDefaults() {
	if o.Prefix == "" {
		o.Prefix = "corpus"
	}
	if o.ShardSize == 0 {
		o.ShardSize = 256 << 20
	}
}

// maxPrefetch is the largest file the export's loaders materialise; a
// larger one is streamed by the writing goroutine when its turn comes.
// Read-ahead memory is bounded at 2 × workers × maxPrefetch.
const maxPrefetch = 4 << 20

// packUnit is one slot of the export pipeline: the file a loader was
// handed, what it made of it, and the buffer that travels with the slot.
type packUnit struct {
	file File
	buf  []byte // backing array, allocated once and reused by every file the slot carries
	data []byte // buf[:file.Size] once loaded
	sum  uint64 // packstore.Checksum of data, folded by the loader
	err  error
	done chan struct{} // one send per hand-out, buffered: a loader never waits on the writer
}

// load materialises the slot's file on a loader goroutine and folds its
// pack checksum while the bytes are still in cache. Files above
// maxPrefetch are left for the writer to stream.
func (u *packUnit) load(bufCap int64) {
	u.data, u.err = nil, nil
	if u.file.Size > maxPrefetch {
		return
	}
	if u.buf == nil {
		u.buf = make([]byte, bufCap)
	}
	if u.data, u.err = u.file.ReadInto(u.buf); u.err == nil {
		u.sum = packstore.Checksum(0, u.data)
	}
}

// ExportPackCtx writes every content-backed file into pack shards under
// dir, in List order, and returns the shard paths. It is an ordered
// two-stage pipeline. Stage one, opts.Workers loaders: each takes the next
// file in List order, reads it into a slot's buffer (sized once to the
// largest file at or under maxPrefetch, so a reused buffer always fits;
// up to 2 × workers + 4 slots, as many as 2 × workers × maxPrefetch
// bytes hold) and folds its pack checksum. Stage two, the caller's
// goroutine: it waits for the next unit, appends it — payload and sum —
// and hands its slot straight out again for the unit that many places
// later, so loading runs ahead of writing and syncing and never stops for
// them. Only stage two touches the shards, strictly in List order, so
// they are byte-reproducible: the same FS always produces the same pack
// files at any worker count. The error reported is the first in List
// order. The context is checked before each load and before each append,
// so an abort lands within one unit of work, the partial shards on disk
// remain well-formed up to the last completed append, and every loader
// has exited before the call returns.
func (fs *FS) ExportPackCtx(ctx context.Context, dir string, opts PackOptions) (paths []string, err error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: export pack: %w", err)
	}
	files := fs.List()
	sw := packstore.NewShardWriter(dir, opts.Prefix, opts.ShardSize)
	// An export that fails still closes the shard it was writing; the
	// failure is what the caller hears about.
	defer func() {
		if err != nil {
			sw.Close()
		}
	}()

	var bufCap int64
	for _, f := range files {
		if f.Size <= maxPrefetch && f.Size > bufCap {
			bufCap = f.Size
		}
	}
	workers := par.New(opts.Workers).Workers()
	// As many slots as the read-ahead budget holds at bufCap apiece, up to
	// 2 × workers + 4: two per loader plus four more of read-ahead. The
	// budget holds at least 2 × workers of any size.
	budget := 2 * int64(workers) * maxPrefetch
	units := make([]packUnit, min(int64(2*workers+4), budget/max(bufCap, 1), int64(len(files))))
	for i := range units {
		units[i].done = make(chan struct{}, 1)
	}
	// Every slot is handed out at most once before it is taken back, so the
	// queue never holds more than len(units) and a send never blocks.
	queue := make(chan *packUnit, len(units))
	loadCtx, stop := context.WithCancel(ctx)
	var loaders sync.WaitGroup
	for k := 0; k < min(workers, len(units)); k++ {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			for u := range queue {
				// A unit skipped here is never appended: the context was
				// done first, and the writer checks it before every append.
				if loadCtx.Err() == nil {
					u.load(bufCap)
				}
				u.done <- struct{}{}
			}
		}()
	}
	defer func() {
		stop()
		close(queue)
		loaders.Wait()
	}()

	// handOut gives units up to (not including) upTo to the loaders. Slot
	// j % len(units) last carried unit j - len(units), which the writer
	// appended before handing unit j out.
	handed := 0
	handOut := func(upTo int) {
		for ; handed < min(upTo, len(files)); handed++ {
			u := &units[handed%len(units)]
			u.file = files[handed]
			queue <- u
		}
	}
	handOut(len(units))
	for i, f := range files {
		u := &units[i%len(units)]
		<-u.done
		if u.err != nil {
			return nil, fmt.Errorf("vfs: export pack at %q: %w", f.Name, u.err)
		}
		if cerr := errs.FromContext(ctx); cerr != nil {
			return nil, cerr
		}
		if f.Size > maxPrefetch {
			r, err := f.Open()
			if err != nil {
				return nil, fmt.Errorf("vfs: export pack at %q: %w", f.Name, err)
			}
			if err := closeReader(r, sw.Append(f.Name, f.Size, r)); err != nil {
				return nil, err
			}
		} else if err := sw.AppendSummed(f.Name, u.data, u.sum); err != nil {
			return nil, err
		}
		handOut(i + 1 + len(units))
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	return sw.Paths(), nil
}

// ImportPackCtx opens pack files — given directly or discovered as
// "*.pack" under directory arguments — into an FS whose files read
// straight out of the packs via shared handles: no per-member
// descriptors, O(1) random access to any member. The returned closer
// releases the pack handles; files obtained from the FS fail after it is
// closed. Cancellation is checked between pack discovery and between
// pack opens; on abort any packs opened so far are closed before the
// typed cancellation error is returned.
// Every read of a member, here and through ImportPackMappedCtx, is held
// to its stored CRC-32C: a mismatch fails as ErrCorrupt, never as data.
func ImportPackCtx(ctx context.Context, sources ...string) (*FS, io.Closer, error) {
	return importPacks(ctx, false, sources)
}

// ImportPackMappedCtx is ImportPackCtx through memory-mapped readers, so
// every imported file carries a zero-copy raw view of its bytes alongside
// the streaming content source. Scans over the returned FS take the
// engine's borrowed-window path: no per-file opens, no block-buffer
// copies, the kernels read straight out of the page cache.
//
// The returned closer unmaps every shard; all raw views (and streaming
// readers) obtained from the FS are invalid after it runs, and a File's
// Bytes or Open then fails. Callers that need bytes past that point must
// copy them first.
func ImportPackMappedCtx(ctx context.Context, sources ...string) (*FS, io.Closer, error) {
	return importPacks(ctx, true, sources)
}

// importPacks is the one pack import: resolve the sources, open each
// shard (mapped, or through a shared handle), list its members in index
// order with their stored sums, and hand the list to the FS in one piece.
// On any failure every shard opened so far is closed again.
func importPacks(ctx context.Context, mapped bool, sources []string) (*FS, io.Closer, error) {
	paths, err := resolvePackPaths(ctx, sources...)
	if err != nil {
		return nil, nil, err
	}
	imp := &packImport{}
	fail := func(err error) (*FS, io.Closer, error) {
		imp.Close()
		return nil, nil, err
	}
	var files []File
	for _, path := range paths {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return fail(cerr)
		}
		var p *packstore.Pack
		var r *packstore.Reader
		if mapped {
			if r, err = packstore.OpenReader(path); err != nil {
				return fail(err)
			}
			imp.shards = append(imp.shards, r)
			// Scans walk each shard front to back; tell the OS so readahead
			// stays aggressive. Best effort by contract.
			_ = r.AdviseSequential()
			p = r.Pack()
		} else {
			if p, err = packstore.Open(path); err != nil {
				return fail(err)
			}
			imp.shards = append(imp.shards, p)
		}
		src := &packSource{p: p, r: r, imp: imp}
		files = slices.Grow(files, len(p.Members()))
		for i, m := range p.Members() {
			// Locality (shard path + member offset) lets fused scans read
			// each pack front to back instead of seeking per member.
			f := NewMemberFile(m.Name, m.Size, p.Path(), m.Offset)
			f.content, f.hasSum, f.sum = src, true, uint32(m.Checksum)
			if r != nil {
				f = f.WithRawBytes(r.MemberBytes(i))
			}
			files = append(files, f)
		}
	}
	fs, err := newFS(files)
	if err != nil {
		return fail(fmt.Errorf("vfs: import pack: %w", err))
	}
	return fs, imp, nil
}

// packImport is what one pack import must release: the shards it opened.
// Once closed, its raw views are refused (checkRaw). Closing twice
// releases once.
type packImport struct {
	shards []io.Closer
	closed atomic.Bool
}

// Close closes every shard, keeping the first error.
func (imp *packImport) Close() error {
	if imp.closed.Swap(true) {
		return nil
	}
	var first error
	for _, c := range imp.shards {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// packSource is every member file's content source for one shard: a
// section of the shard at the member's offset and size, which the File
// already carries, so no member needs a closure of its own.
type packSource struct {
	p   *packstore.Pack
	r   *packstore.Reader // the shard's mapping; nil for a plain import
	imp *packImport

	once sync.Once
	bad  []int64 // offsets of the members whose raw view fails its sum
}

func (s *packSource) Open(f *File) (io.Reader, error) {
	return s.p.SectionReader(packstore.Member{Offset: f.shardOff, Size: f.Size}), nil
}

// checkRaw holds a mapped member's raw view to its stored sum, and
// refuses it once the import is closed. The first raw read of any member
// hashes the whole shard and remembers which members failed, so a daemon
// that rescans its corpus per request hashes it once per import; the
// mapping is read-only, so a view keeps the bytes that were checked.
func (s *packSource) checkRaw(f *File) error {
	if s.imp.closed.Load() {
		return fmt.Errorf("vfs: raw read of %q after its pack import was closed", f.Name)
	}
	s.once.Do(func() {
		for i, m := range s.p.Members() {
			if packstore.Checksum(0, s.r.MemberBytes(i)) != m.Checksum {
				s.bad = append(s.bad, m.Offset)
			}
		}
	})
	if slices.Contains(s.bad, f.shardOff) {
		return checkSum(f.Name, packstore.Checksum(0, f.raw), f.sum)
	}
	return nil
}

// checkSum is the one comparison of a member's bytes with its stored sum:
// a mismatch is ErrCorrupt, stage "verify", file = member name.
func checkSum(name string, got uint64, want uint32) error {
	if got == uint64(want) {
		return nil
	}
	return errs.StageFile("verify", name,
		errs.Corrupt("vfs: member %q checksum %08x != indexed %08x", name, got, want))
}

// verifyReader streams a pack member while folding its pack checksum,
// checking it against the indexed checksum the moment the payload is
// fully delivered: on whichever Read completes the payload, and again at
// EOF, so a scanner that consumes the member sees either fully-verified
// bytes followed by EOF, or a typed ErrCorrupt naming the member.
type verifyReader struct {
	r    io.Reader
	name string
	want uint32
	sum  uint64
	n    int64
	size int64
	err  error // sticky verification failure
}

func (v *verifyReader) Read(p []byte) (int, error) {
	// The failure is sticky: io.ReadFull-style consumers drop an error
	// delivered alongside the final bytes, so every later Read must
	// repeat it rather than answer EOF.
	if v.err != nil {
		return 0, v.err
	}
	n, err := v.r.Read(p)
	if n > 0 {
		v.sum = packstore.Checksum(v.sum, p[:n])
		v.n += int64(n)
	}
	if err == io.EOF || (err == nil && v.n >= v.size) {
		if cerr := v.check(); cerr != nil {
			v.err = cerr
			return n, cerr
		}
	}
	return n, err
}

func (v *verifyReader) check() error {
	if v.n != v.size {
		return errs.StageFile("verify", v.name,
			errs.Corrupt("vfs: member %q delivered %d bytes, index says %d", v.name, v.n, v.size))
	}
	return checkSum(v.name, v.sum, v.want)
}

// resolvePackPaths expands pack sources — explicit files or directories
// discovered for "*.pack" — into the flat path list both import variants
// open, checking cancellation between sources.
func resolvePackPaths(ctx context.Context, sources ...string) ([]string, error) {
	var paths []string
	for _, src := range sources {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return nil, cerr
		}
		info, err := os.Stat(src)
		if err != nil {
			return nil, fmt.Errorf("vfs: import pack: %w", err)
		}
		if !info.IsDir() {
			paths = append(paths, src)
			continue
		}
		found, err := packstore.Discover(src)
		if err != nil {
			return nil, err
		}
		if len(found) == 0 {
			return nil, fmt.Errorf("vfs: import pack: no *.pack files under %s", src)
		}
		paths = append(paths, found...)
	}
	return paths, nil
}
