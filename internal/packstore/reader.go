package packstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/errs"
	"repro/internal/par"
)

// Pack is an open pack file. All members share one *os.File handle used
// exclusively through ReadAt (pread), so any number of member readers
// can stream concurrently from a single descriptor — opening a member is
// free and reading one costs O(member), not O(pack).
type Pack struct {
	path      string
	ra        io.ReaderAt
	closer    io.Closer
	size      int64
	members   []Member // sorted by name
	byName    map[string]int
	truncated bool
}

// Open opens a finalised pack strictly: the footer must be intact and
// the index must match its checksum. Use Recover for packs that may
// have lost their tail to a crash.
func Open(path string) (*Pack, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("packstore: open: %w", err)
	}
	p, err := openStrict(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// checkHeader refuses a file that does not start with this format's
// magic. A v1 pack is refused as ErrInvalid, naming the format: its bytes
// may be intact, but this build neither writes nor checks FNV-64a sums.
func checkHeader(f *os.File, path string) error {
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("packstore: %s: reading header: %w", path, err)
	}
	switch string(hdr[:]) {
	case headerMagic:
		return nil
	case headerMagicV1:
		return errs.Invalid("packstore: %s is pack format v1 (FNV-64a sums); this build reads and writes v2 — export the corpus again", path)
	}
	return errs.Corrupt("packstore: %s: bad header magic (not a pack)", path)
}

// openStrict reads header, footer and index from an open file. A refusal
// of the file's bytes wraps errs.ErrCorrupt, or ErrInvalid for a v1 pack.
func openStrict(f *os.File, path string) (*Pack, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("packstore: open %s: %w", path, err)
	}
	size := info.Size()
	if size < int64(headerLen+footerLen) {
		return nil, errs.Corrupt("packstore: %s: too short for a pack (%d bytes)", path, size)
	}
	if err := checkHeader(f, path); err != nil {
		return nil, err
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], size-int64(footerLen)); err != nil {
		return nil, fmt.Errorf("packstore: %s: reading footer: %w", path, err)
	}
	if string(footer[32:]) != footerMagic {
		return nil, errs.Corrupt("packstore: %s: bad footer magic (truncated or unfinalised pack; try Recover)", path)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:]))
	count := binary.LittleEndian.Uint64(footer[16:])
	indexSum := binary.LittleEndian.Uint64(footer[24:])
	if indexOff < int64(headerLen) || indexLen < 0 || indexOff+indexLen != size-int64(footerLen) {
		return nil, errs.Corrupt("packstore: %s: footer index bounds [%d,+%d) inconsistent with file size %d",
			path, indexOff, indexLen, size)
	}
	index := make([]byte, indexLen)
	if _, err := f.ReadAt(index, indexOff); err != nil {
		return nil, fmt.Errorf("packstore: %s: reading index: %w", path, err)
	}
	if sum := Checksum(0, index); sum != indexSum {
		return nil, errs.Corrupt("packstore: %s: index checksum %x != footer %x (corrupt index; try Recover)",
			path, sum, indexSum)
	}
	members, err := decodeIndex(index, count, indexOff)
	if err != nil {
		return nil, errs.Corrupt("packstore: %s: %v", path, err)
	}
	return newPack(path, f, f, size, members, false)
}

// decodeIndex parses index bytes, validating every entry's bounds
// against the record region [headerLen, indexOff).
func decodeIndex(index []byte, count uint64, indexOff int64) ([]Member, error) {
	// An entry is 28 bytes and a name of at least one.
	if count > uint64(len(index)/29) {
		return nil, fmt.Errorf("index of %d bytes cannot hold %d entries", len(index), count)
	}
	members := make([]Member, 0, count)
	off := 0
	for i := uint64(0); i < count; i++ {
		if off+28 > len(index) {
			return nil, fmt.Errorf("index entry %d overruns index", i)
		}
		nameLen := int(binary.LittleEndian.Uint32(index[off:]))
		m := Member{
			Size:     int64(binary.LittleEndian.Uint64(index[off+4:])),
			Checksum: binary.LittleEndian.Uint64(index[off+12:]),
			Offset:   int64(binary.LittleEndian.Uint64(index[off+20:])),
		}
		off += 28
		if nameLen <= 0 || nameLen >= MaxNameLen || off+nameLen > len(index) {
			return nil, fmt.Errorf("index entry %d has invalid name length %d", i, nameLen)
		}
		m.Name = string(index[off : off+nameLen])
		off += nameLen
		// Offset and Size are untrusted: compared, never summed, so that no
		// overflow can pass the check.
		if m.Offset < int64(headerLen) || m.Size < 0 || m.Offset > indexOff-checksumLen-m.Size {
			return nil, fmt.Errorf("index entry %q payload [%d,+%d) outside record region", m.Name, m.Offset, m.Size)
		}
		members = append(members, m)
	}
	if off != len(index) {
		return nil, fmt.Errorf("index has %d trailing bytes", len(index)-off)
	}
	return members, nil
}

// newPack assembles a Pack, sorting members by name and rejecting
// duplicates so lookups and iteration order are deterministic.
func newPack(path string, ra io.ReaderAt, closer io.Closer, size int64, members []Member, truncated bool) (*Pack, error) {
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	byName := make(map[string]int, len(members))
	for i, m := range members {
		if _, dup := byName[m.Name]; dup {
			return nil, errs.Corrupt("packstore: %s: duplicate member %q", path, m.Name)
		}
		byName[m.Name] = i
	}
	return &Pack{
		path:      path,
		ra:        ra,
		closer:    closer,
		size:      size,
		members:   members,
		byName:    byName,
		truncated: truncated,
	}, nil
}

// RecoverCtx opens a pack leniently: if the footer and index are intact
// it behaves exactly like Open; otherwise it rescans the record region and
// salvages every complete member, checksums included — the durable-store
// guarantee that a crash mid-append loses at most the member being
// written. A pack recovered from a damaged tail reports Truncated(). ctx
// is threaded through the salvage verification passes (the expensive part
// of recovery on a large pack).
func RecoverCtx(ctx context.Context, path string) (_ *Pack, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("packstore: recover: %w", err)
	}
	if p, err := openStrict(f, path); err == nil {
		return p, nil
	}
	// The salvaged pack owns f; every failure below gives it back.
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("packstore: recover %s: %w", path, err)
	}
	size := info.Size()
	if size < int64(headerLen) {
		return nil, errs.Corrupt("packstore: recover %s: shorter than the pack header", path)
	}
	if err := checkHeader(f, path); err != nil {
		return nil, err
	}
	members := scanRecords(f, size)
	p, err := newPack(path, f, f, size, members, true)
	if err != nil {
		return nil, err
	}
	// Salvage means intact: verify every salvaged payload. A bad final
	// member is the crash tail — drop it; a bad earlier member is
	// corruption, not truncation — surface it.
	verr := p.VerifyCtx(ctx, 0)
	if verr == nil {
		return p, nil
	}
	if errs.IsCancellation(verr) || len(members) == 0 {
		return nil, verr
	}
	last := members[0] // highest offset = last appended
	for _, m := range members {
		if m.Offset > last.Offset {
			last = m
		}
	}
	if verifyMembers([]packMember{{p, last}}) == nil {
		return nil, fmt.Errorf("packstore: recover %s: corruption beyond the tail: %w", path, verr)
	}
	trimmed := make([]Member, 0, len(members)-1)
	for _, m := range members {
		if m.Name != last.Name {
			trimmed = append(trimmed, m)
		}
	}
	if p, err = newPack(path, f, f, size, trimmed, true); err != nil {
		return nil, err
	}
	if err := p.VerifyCtx(ctx, 0); err != nil {
		return nil, fmt.Errorf("packstore: recover %s: corruption beyond the tail: %w", path, err)
	}
	return p, nil
}

// scanRecords walks the record region sequentially and returns every
// member whose record is complete (prefix, name, payload and trailing
// checksum all present). The first malformed or cut record ends the
// scan: records are written strictly sequentially, so nothing beyond a
// damaged record can be a record.
func scanRecords(ra io.ReaderAt, size int64) []Member {
	var members []Member
	off := int64(headerLen)
	prefix := make([]byte, recordPrefixLen)
	for {
		if off+int64(recordPrefixLen) > size {
			return members
		}
		if _, err := ra.ReadAt(prefix, off); err != nil {
			return members
		}
		if string(prefix[:4]) != recordMagic {
			return members
		}
		nameLen := int64(binary.LittleEndian.Uint32(prefix[4:]))
		msize := int64(binary.LittleEndian.Uint64(prefix[8:]))
		nameOff := off + int64(recordPrefixLen)
		payloadOff := nameOff + nameLen
		// msize is untrusted: compared, never summed, until it fits.
		if nameLen <= 0 || nameLen >= MaxNameLen || msize < 0 || msize > size-checksumLen-payloadOff {
			return members
		}
		end := payloadOff + msize + checksumLen
		name := make([]byte, nameLen)
		if _, err := ra.ReadAt(name, nameOff); err != nil {
			return members
		}
		var sum [checksumLen]byte
		if _, err := ra.ReadAt(sum[:], payloadOff+msize); err != nil {
			return members
		}
		members = append(members, Member{
			Name:     string(name),
			Size:     msize,
			Checksum: binary.LittleEndian.Uint64(sum[:]),
			Offset:   payloadOff,
		})
		off = end
	}
}

// Path returns the pack's file path.
func (p *Pack) Path() string { return p.path }

// Len returns the number of members.
func (p *Pack) Len() int { return len(p.members) }

// Truncated reports whether the pack was salvaged from a damaged tail
// (only ever true for packs opened via Recover).
func (p *Pack) Truncated() bool { return p.truncated }

// Members returns all members sorted by name. Callers must not modify
// the returned slice.
func (p *Pack) Members() []Member { return p.members }

// Lookup finds a member by name.
func (p *Pack) Lookup(name string) (Member, bool) {
	i, ok := p.byName[name]
	if !ok {
		return Member{}, false
	}
	return p.members[i], true
}

// SectionReader returns an independent reader over a member's payload.
// It never opens a file descriptor: all sections share the pack's
// handle through ReadAt.
func (p *Pack) SectionReader(m Member) *io.SectionReader {
	return io.NewSectionReader(p.ra, m.Offset, m.Size)
}

// packMember is one member to verify and the pack that holds it.
type packMember struct {
	p *Pack
	m Member
}

// verifyBatch is how many consecutive members one verify task checks, so
// a set of many small members does not pay the pool's dispatch per member.
const verifyBatch = 4

// verifyWindow is how much of a member verifyMembers reads per step.
const verifyWindow = 64 << 10

var verifyBufPool = sync.Pool{
	New: func() any {
		buf := make([]byte, verifyWindow)
		return &buf
	},
}

// verifyMembers checks members in order against their stored checksums,
// each pread and folded a window at a time, and returns the first bad
// member's error — a read error or a mismatch, each a StageError (stage
// "verify", file = member name), the mismatch wrapping errs.ErrCorrupt —
// so callers identify the blamed member with errors.As instead of parsing
// the message.
func verifyMembers(batch []packMember) error {
	bp := verifyBufPool.Get().(*[]byte)
	defer verifyBufPool.Put(bp)
	for _, pm := range batch {
		var sum uint64
		for off := int64(0); off < pm.m.Size; {
			w := (*bp)[:min(verifyWindow, pm.m.Size-off)]
			if n, err := pm.p.ra.ReadAt(w, pm.m.Offset+off); n < len(w) {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return errs.StageFile("verify", pm.m.Name, fmt.Errorf("packstore: %s: %w", pm.p.path, err))
			}
			sum, off = Checksum(sum, w), off+int64(len(w))
		}
		if sum != pm.m.Checksum {
			return errs.StageFile("verify", pm.m.Name,
				errs.Corrupt("packstore: %s: checksum %x != stored %x", pm.p.path, sum, pm.m.Checksum))
		}
	}
	return nil
}

// verifyAll checks members in batches of verifyBatch consecutive ones on
// the pool. The reported error is the first bad member's in slice order:
// batches are consecutive, the pool reports the lowest failing batch and a
// batch its first failing member. Batch dispatch stops once ctx is done
// and the call returns a typed cancellation error; a corruption found
// before the abort still wins (task errors take precedence).
func verifyAll(ctx context.Context, workers int, members []packMember) error {
	batches := (len(members) + verifyBatch - 1) / verifyBatch
	return par.New(workers).ForEachCtx(ctx, batches, func(b int) error {
		lo := b * verifyBatch
		return verifyMembers(members[lo:min(lo+verifyBatch, len(members))])
	})
}

// VerifyCtx checksums every member's payload against the index, four
// consecutive members per task on the pool (workers <= 0 means
// GOMAXPROCS). The reported error is the one from the first bad member in
// name order, so the outcome is identical at any worker count. Batch
// dispatch stops once ctx is done and the call returns a typed
// cancellation error; a corruption found before the abort still wins.
func (p *Pack) VerifyCtx(ctx context.Context, workers int) error {
	members := make([]packMember, len(p.members))
	for i, m := range p.members {
		members[i] = packMember{p, m}
	}
	return verifyAll(ctx, workers, members)
}

// Close releases the pack's shared file handle. Member readers obtained
// earlier fail after Close.
func (p *Pack) Close() error {
	if p.closer == nil {
		return nil
	}
	c := p.closer
	p.closer = nil
	return c.Close()
}
