package vfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/par"
)

// importChunkFiles is how many directory entries one import task loads:
// enough to amortise the task's claim and its share of a slab, few enough
// that a corpus of a few thousand files still spreads over every worker.
const importChunkFiles = 256

// importChunks is how many chunks a walk of n entries makes.
func importChunks(n int) int { return (n + importChunkFiles - 1) / importChunkFiles }

// forEachImportChunk runs fn over the contiguous chunks [lo, hi) of a walk
// of n entries, chunk c of importChunks(n), concurrently on the default
// pool. fn writes only to its own entries' slots, so the result does not
// depend on the worker count, and the error is the first in walk order.
func forEachImportChunk(ctx context.Context, n int, fn func(c, lo, hi int) error) error {
	return par.Default().ForEachCtx(ctx, importChunks(n), func(c int) error {
		lo := c * importChunkFiles
		return fn(c, lo, min(lo+importChunkFiles, n))
	})
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
	// Walk first, load second: the walk order defines the corpus exactly
	// as ImportDir does, and it reports entries without an lstat apiece —
	// the load's own fstat is the only one a file gets.
	entries, err := walkFiles(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("vfs: import mapped %s: %w", dir, err)
	}

	// Contiguous chunks of the walk load concurrently, each file into its
	// own slot, so the result does not depend on the worker count. A
	// worker keeps filling one slab across the chunks it claims.
	imp := &dirImport{}
	files := make([]File, len(entries))
	chunkMaps := make([][]*packstore.FileMapping, importChunks(len(entries)))
	err = forEachImportChunk(ctx, len(entries), func(c, lo, hi int) error {
		slab := imp.slab()
		defer imp.idle(slab)
		for i := lo; i < hi; i++ {
			if cerr := errs.FromContext(ctx); cerr != nil {
				return cerr
			}
			data, m, err := packstore.LoadFile(entries[i].path, slab)
			if err != nil {
				return err
			}
			if m != nil {
				chunkMaps[c] = append(chunkMaps[c], m)
				// Scans walk each file front to back; tell the OS so
				// readahead stays aggressive. Best effort by contract.
				_ = m.AdviseSequential()
			}
			files[i] = imp.file(entries[i].name, data)
		}
		return nil
	})
	for _, ms := range chunkMaps {
		imp.maps = append(imp.maps, ms...)
	}
	fs := newFS(len(files))
	for i := 0; err == nil && i < len(files); i++ {
		err = fs.Add(files[i])
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
	maps []*packstore.FileMapping

	mu    sync.Mutex
	slabs []*packstore.FileSlab // every loader's slab, for Close
	free  []*packstore.FileSlab // those no chunk is filling

	closed atomic.Bool
}

// slab hands a chunk a slab no other chunk is filling: one a finished
// chunk left, so a worker keeps filling the slab it started, or a new one.
func (imp *dirImport) slab() *packstore.FileSlab {
	imp.mu.Lock()
	defer imp.mu.Unlock()
	if n := len(imp.free); n > 0 {
		s := imp.free[n-1]
		imp.free = imp.free[:n-1]
		return s
	}
	s := new(packstore.FileSlab)
	imp.slabs = append(imp.slabs, s)
	return s
}

// idle takes back a slab its chunk has finished with.
func (imp *dirImport) idle(s *packstore.FileSlab) {
	imp.mu.Lock()
	imp.free = append(imp.free, s)
	imp.mu.Unlock()
}

// file builds the imported File over its loaded content view.
func (imp *dirImport) file(name string, data []byte) File {
	return NewContentFile(name, int64(len(data)), func() (io.Reader, error) {
		// Loud failure after the import's closer runs, matching the pack
		// reader's read-after-close contract.
		if imp.closed.Load() {
			return nil, errors.New("read after mapped dir import close")
		}
		return bytes.NewReader(data), nil
	}).WithRawBytes(data)
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
