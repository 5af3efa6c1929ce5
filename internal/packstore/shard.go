package packstore

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"sort"
)

// ShardWriter splits a stream of members across pack files, rolling to a
// new shard once the current one holds at least one member and the next
// member would push its payload bytes past the target. Shard file names
// are "<prefix>-<seq>.pack" with a fixed-width sequence number, so a
// directory listing sorts shards in write order and the layout is a pure
// function of the member sequence — byte-reproducible.
type ShardWriter struct {
	dir    string
	prefix string
	target int64
	w      *Writer
	seq    int
	paths  []string
	closed bool
}

// NewShardWriter prepares a sharding writer. target <= 0 means a single
// unbounded shard. No file is created until the first Append, so an
// empty export leaves no artefacts.
func NewShardWriter(dir, prefix string, target int64) *ShardWriter {
	if prefix == "" {
		prefix = "corpus"
	}
	return &ShardWriter{dir: dir, prefix: prefix, target: target}
}

// Paths returns the shard files written so far, in write order.
func (s *ShardWriter) Paths() []string { return append([]string(nil), s.paths...) }

// roll closes the current shard (if any) and starts the next.
func (s *ShardWriter) roll() error {
	if s.w != nil {
		if err := s.w.Close(); err != nil {
			return err
		}
		s.w = nil
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%s-%06d.pack", s.prefix, s.seq))
	w, err := Create(path)
	if err != nil {
		return err
	}
	s.w = w
	s.seq++
	s.paths = append(s.paths, path)
	return nil
}

// ensure rolls to a fresh shard when appending size more bytes to the
// current one would exceed the target (and the shard is non-empty).
func (s *ShardWriter) ensure(size int64) error {
	if s.closed {
		return fmt.Errorf("packstore: append to closed shard writer")
	}
	if s.w == nil || (s.target > 0 && s.w.Count() > 0 && s.w.DataSize()+size > s.target) {
		return s.roll()
	}
	return nil
}

// Append stores one member, rolling to a new shard first when the
// current shard is non-empty and adding size bytes would exceed the
// target. Oversized members therefore get a shard of their own rather
// than being rejected, mirroring the bin packers' oversized handling.
func (s *ShardWriter) Append(name string, size int64, r io.Reader) error {
	if err := s.ensure(size); err != nil {
		return err
	}
	return s.w.Append(name, size, r)
}

// AppendSummed is Append over an in-memory payload whose member checksum
// the caller has folded (see Writer.AppendSummed).
func (s *ShardWriter) AppendSummed(name string, data []byte, sum uint64) error {
	if err := s.ensure(int64(len(data))); err != nil {
		return err
	}
	return s.w.AppendSummed(name, data, sum)
}

// Close finalises the last shard. The ShardWriter is unusable afterwards.
func (s *ShardWriter) Close() error {
	if s.closed {
		return fmt.Errorf("packstore: shard writer already closed")
	}
	s.closed = true
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.w = nil
	return err
}

// Discover returns the pack files under dir ("*.pack"), sorted by name —
// the inverse of ShardWriter's naming, recovering write order.
func Discover(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.pack"))
	if err != nil {
		return nil, fmt.Errorf("packstore: discover %s: %w", dir, err)
	}
	sort.Strings(paths)
	return paths, nil
}

// Set is a collection of open packs — typically the shards of one
// exported corpus — verified and closed as a unit.
type Set struct {
	packs []*Pack
}

// OpenSet strictly opens every path into a Set. On any failure the packs
// opened so far are closed.
func OpenSet(paths ...string) (*Set, error) {
	s := &Set{packs: make([]*Pack, 0, len(paths))}
	for _, path := range paths {
		p, err := Open(path)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.packs = append(s.packs, p)
	}
	return s, nil
}

// Len returns the total member count across all packs.
func (s *Set) Len() int {
	n := 0
	for _, p := range s.packs {
		n += p.Len()
	}
	return n
}

// VerifyCtx checksums every member of every pack on one pool, four
// consecutive members of the (pack, name) order per task — a batch may
// span two shards — so a set of many small shards still saturates the
// machine. Errors are reported for the first failing member in (pack,
// name) order, independent of worker count. Batch dispatch stops once ctx
// is done and the call returns a typed cancellation error; a corruption
// found before the abort still wins.
func (s *Set) VerifyCtx(ctx context.Context, workers int) error {
	flat := make([]packMember, 0, s.Len())
	for _, p := range s.packs {
		for _, m := range p.Members() {
			flat = append(flat, packMember{p, m})
		}
	}
	return verifyAll(ctx, workers, flat)
}

// Close closes every pack, returning the first error.
func (s *Set) Close() error {
	var first error
	for _, p := range s.packs {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
