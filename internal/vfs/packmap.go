package vfs

import (
	"context"
	"fmt"
	"io"

	"repro/internal/errs"
	"repro/internal/packstore"
)

// ImportPackMappedCtx opens pack files — given directly or discovered as
// "*.pack" under directory arguments, exactly like ImportPackCtx —
// through memory-mapped readers, so every imported file carries a
// zero-copy raw view of its bytes alongside the streaming content source.
// Scans over the returned FS take the engine's borrowed-window path: no
// per-file opens, no block-buffer copies, the kernels read straight out
// of the page cache.
//
// The returned closer unmaps every shard; all raw views (and streaming
// readers) obtained from the FS are invalid after it runs. Callers that
// need bytes past that point must copy them first. Cancellation is
// checked between pack opens and member registrations; on abort every
// mapping made so far is released before the typed cancellation error is
// returned.
func ImportPackMappedCtx(ctx context.Context, sources ...string) (*FS, io.Closer, error) {
	paths, err := resolvePackPaths(ctx, sources...)
	if err != nil {
		return nil, nil, err
	}
	readers := &readerSet{}
	fail := func(err error) (*FS, io.Closer, error) {
		readers.Close()
		return nil, nil, err
	}
	fs := NewFS()
	for _, path := range paths {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return fail(cerr)
		}
		r, err := packstore.OpenReader(path)
		if err != nil {
			return fail(err)
		}
		readers.rs = append(readers.rs, r)
		// Scans walk each shard front to back; tell the OS so readahead
		// stays aggressive. Best effort by contract.
		_ = r.AdviseSequential()
		p := r.Pack()
		for i, m := range p.Members() {
			f := NewContentFile(m.Name, m.Size, func() io.Reader {
				return p.SectionReader(m)
			}).WithLocality(p.Path(), m.Offset).WithRawBytes(r.MemberBytes(i))
			if err := fs.Add(f); err != nil {
				return fail(fmt.Errorf("vfs: import mapped pack %s: %w", p.Path(), err))
			}
		}
	}
	return fs, readers, nil
}

// readerSet closes a group of mapped pack readers as one unit, keeping
// the first error.
type readerSet struct {
	rs []*packstore.Reader
}

func (s *readerSet) Close() error {
	var first error
	for _, r := range s.rs {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
