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
	path    string
	ra      io.ReaderAt
	closer  io.Closer
	size    int64
	members []Member // sorted by name
	byName  map[string]int
}

// Open opens a finalised pack: the footer must be intact and the index
// must match its checksum. A pack that lost its tail — a crash or a failed
// append before Writer.Close — is refused with ErrCorrupt naming the file;
// a pack is staged data, re-created by exporting its input again.
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

// openStrict reads header, footer and index from an open file and
// assembles the Pack, its members sorted by name so lookups and iteration
// order are deterministic. A refusal of the file's bytes — a duplicate
// member name included — wraps errs.ErrCorrupt, or ErrInvalid for a v1
// pack.
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
		return nil, errs.Corrupt("packstore: %s: bad footer magic (truncated or unfinalised pack)", path)
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
		return nil, errs.Corrupt("packstore: %s: index checksum %x != footer %x (corrupt index)",
			path, sum, indexSum)
	}
	members, err := decodeIndex(index, count, indexOff)
	if err != nil {
		return nil, errs.Corrupt("packstore: %s: %v", path, err)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Name < members[j].Name })
	byName := make(map[string]int, len(members))
	for i, m := range members {
		if _, dup := byName[m.Name]; dup {
			return nil, errs.Corrupt("packstore: %s: duplicate member %q", path, m.Name)
		}
		byName[m.Name] = i
	}
	return &Pack{path: path, ra: f, closer: f, size: size, members: members, byName: byName}, nil
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

// Path returns the pack's file path.
func (p *Pack) Path() string { return p.path }

// Len returns the number of members.
func (p *Pack) Len() int { return len(p.members) }

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
