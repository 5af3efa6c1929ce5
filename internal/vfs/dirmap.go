package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/par"
)

// importChunkFiles is how many entries the walk hands the loaders at a
// time: enough to amortise a handoff, few enough that loads start while the
// first directory is read and a few thousand files spread over every core.
const importChunkFiles = 256

// dirEntry is one file the walk found — its corpus name and its path on
// disk — and what its load made of it: ImportDir's size, or the mapped
// import's view.
//
// walkFiles(dir, emit) is the one directory walk: every non-directory
// entry under dir, by slash-separated name relative to dir and by path,
// handed to emit importChunkFiles at a time as each directory returns
// them (emit keeps the chunk; its error ends the walk). Symlinks are
// listed, not followed; an unreadable directory is an error. On linux it
// reads the directories itself (walk_linux.go); elsewhere, and behind
// packstore_nommap so that the portable walk has a linux build to test
// it, it lists them with os.ReadDir (walk_other.go).
type dirEntry struct {
	name, path string
	size       int64
	data       []byte
}

// walkBefore reports whether filepath.WalkDir, depth-first in lexical
// order, lists a before b: byte order with '/' below every other byte.
func walkBefore(a, b string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] == '/' || (b[i] != '/' && a[i] < b[i])
		}
	}
	return len(a) < len(b)
}

// walkLoad walks dir on a goroutine of its own, which puts the entries in
// name order once the walk has ended, while GOMAXPROCS loaders run on them
// from the first chunk on, each with the load loader gives it. walkLoad
// returns the entries; else the walk's error; else the failed load first
// in walk order at any loader count (none after it is loaded); else the
// cancellation, checked before every chunk and file.
func walkLoad(ctx context.Context, dir string, loader func() func(*dirEntry) error) ([]*dirEntry, error) {
	workers := par.Default().Workers()
	chunks := make(chan []dirEntry, workers) // a chunk ready for each core
	var entries []*dirEntry
	var werr error
	walked := make(chan struct{})
	go func() {
		defer close(walked)
		var listed [][]dirEntry
		werr = walkFiles(dir, func(chunk []dirEntry) error {
			if cerr := errs.FromContext(ctx); cerr != nil {
				return cerr
			}
			listed = append(listed, chunk)
			chunks <- chunk
			return nil
		})
		close(chunks)
		if werr == nil {
			entries = byName(listed)
		}
	}()
	var first firstFailure
	var loaders sync.WaitGroup
	for range workers {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			load := loader()
			for chunk := range chunks {
				for i := range chunk {
					e := &chunk[i]
					if ctx.Err() != nil || !first.before(e.name) {
						continue
					}
					if err := load(e); err != nil {
						first.record(e.name, err)
					}
				}
			}
		}()
	}
	loaders.Wait()
	<-walked
	switch cerr := errs.FromContext(ctx); {
	case werr != nil && !errs.IsCancellation(werr):
		return nil, werr
	case first.err != nil:
		return nil, first.err
	case cerr != nil:
		return nil, cerr
	}
	return entries, nil
}

// firstFailure is the failed load that comes first in walk order so far.
type firstFailure struct {
	mu  sync.Mutex
	err error
	at  atomic.Pointer[string] // the name err is at
}

// before reports whether no failure is recorded at or before name.
func (f *firstFailure) before(name string) bool {
	at := f.at.Load()
	return at == nil || walkBefore(name, *at)
}

// record keeps the failed load of name if it comes first in walk order.
func (f *firstFailure) record(name string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.before(name) {
		f.err = err
		f.at.Store(&name)
	}
}

// byName lists the entries of every chunk in name order.
func byName(chunks [][]dirEntry) []*dirEntry {
	entries := make([]*dirEntry, 0, len(chunks)*importChunkFiles)
	for _, c := range chunks {
		for i := range c {
			entries = append(entries, &c[i])
		}
	}
	cmp := func(a, b *dirEntry) int { return strings.Compare(a.name, b.name) }
	if !slices.IsSortedFunc(entries, cmp) {
		slices.SortFunc(entries, cmp)
	}
	return entries
}

// ImportDirMappedCtx loads every regular file under dir — the same corpus
// ImportDir builds — with a zero-copy raw view on every file alongside
// its streaming content source. Scans over the returned FS take the
// engine's borrowed-window path: no per-file opens during the scan, no
// block-buffer copies.
//
// Delivery is chosen per file, by its size (packstore.LoadFile). A file
// at or under packstore.SmallFileLimit is read once, at import, into a
// heap slab it shares with its neighbours: a mapping costs an mmap, a
// munmap, a VMA and a page fault whatever the file's size, the two calls
// serialise on the process's address-space lock, and for a file of a few
// pages that fixed cost is several times the copy. A larger file is
// memory-mapped, so the kernels read it straight out of the page cache.
// A corpus of many small files — the paper's unreshaped "before" state —
// therefore imports with one open, fstat, read and close per file and one
// recycled slab per megabyte, in parallel, and its closer has nothing to
// unmap; a corpus of unit files imports as mappings, as before.
//
// Sizes come from each file's fstat, and the streaming source reads
// through the same view as the raw path, so both are one consistent
// snapshot. A small file is read to EOF against that size: one that was
// truncated or appended to between the fstat and the read fails the
// import with errs.ErrCorrupt, and once imported it cannot change under
// the scan — unlike a mapped file, which a concurrent truncation still
// turns into a SIGBUS. On platforms (or builds) without mmap the mappings
// degrade to heap buffers with identical behavior, exactly like the pack
// Reader's packstore_nommap fallback.
//
// The loads run beside the walk (walkLoad), so the FS is in name order
// and the error is the first in walk order at any worker count.
//
// The returned closer unmaps the mapped files and hands the slabs back to
// packstore's pool, where the next import refills them; all raw views and
// streaming readers obtained from the FS are invalid after it runs, for
// slab-backed files too (their streaming readers fail as loudly as the
// mapped ones, and their raw views read another import's bytes — 0xDB
// under the scandebug tag). Callers that need bytes past that point must
// copy them first. Closing twice releases once. Cancellation is checked
// between files; on abort, and on any failure, every mapping and slab
// taken so far is released before the error is returned.
func ImportDirMappedCtx(ctx context.Context, dir string) (*FS, io.Closer, error) {
	imp := &dirImport{}
	entries, err := walkLoad(ctx, dir, imp.loader)
	var fs *FS
	if err == nil {
		files := make([]File, len(entries))
		for i, e := range entries {
			files[i] = File{Name: e.name, Size: int64(len(e.data)), content: imp, raw: e.data, hasRaw: true}
		}
		fs, err = newFS(files)
	}
	if err != nil {
		imp.Close()
		if !errs.IsCancellation(err) {
			err = fmt.Errorf("vfs: import mapped %s: %w", dir, err)
		}
		return nil, nil, err
	}
	return fs, imp, nil
}

// dirImport owns what a mapped directory import must release: the
// mappings of its large files and the slabs its loaders filled with the
// small ones, which go back to packstore's pool for the next import.
type dirImport struct {
	mu     sync.Mutex
	maps   []*packstore.FileMapping
	slabs  []*packstore.FileSlab // one per loader goroutine
	closed atomic.Bool
}

// loader returns one loader's load: a small file into the loader's own
// slab, a large one mapped. The load's fstat is the only stat a file gets.
func (imp *dirImport) loader() func(*dirEntry) error {
	slab := new(packstore.FileSlab)
	imp.mu.Lock()
	imp.slabs = append(imp.slabs, slab)
	imp.mu.Unlock()
	return func(e *dirEntry) error {
		data, m, err := packstore.LoadFile(e.path, slab)
		if err != nil {
			return err
		}
		if m != nil {
			imp.mu.Lock()
			imp.maps = append(imp.maps, m)
			imp.mu.Unlock()
			// Scans walk each file front to back; tell the OS so
			// readahead stays aggressive. Best effort by contract.
			_ = m.AdviseSequential()
		}
		e.data = data
		return nil
	}
}

// open is every imported file's content source: a reader over its raw
// view, or, once the import's closer has run, a loud failure, matching
// the pack reader's read-after-close contract.
func (imp *dirImport) open(f *File) (io.Reader, error) {
	if imp.closed.Load() {
		return nil, errors.New("read after mapped dir import close")
	}
	return bytes.NewReader(f.raw), nil
}

// Close unmaps every mapped file, keeping the first error, and releases
// every slab. Only the first call does anything, so a second Close cannot
// hand a slab to the pool twice — that is, to two later imports at once.
func (imp *dirImport) Close() error {
	if imp.closed.Swap(true) {
		return nil
	}
	for _, s := range imp.slabs {
		s.Release()
	}
	var first error
	for _, m := range imp.maps {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
