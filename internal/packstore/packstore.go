// Package packstore implements a durable, sharded pack-file store for
// reshaped corpora: the on-disk counterpart of the paper's unit files.
// Exporting a reshaped corpus as one plain file per unit re-pays the
// per-file open overhead the reshaping eliminated; a pack bundles many
// members into a single container with an index, so a million-member
// corpus costs a handful of file opens and any member is reachable in
// O(1) — the same shape every modern data-loading stack (tfrecord,
// WebDataset) converged on, and the staging artefact the paper's §3/§5
// storage experiments call for.
//
// # Format
//
// A pack is append-only and fully deterministic (no timestamps, no
// padding, fixed little-endian encoding), so packing the same members in
// the same order twice yields byte-identical files:
//
//	header   8 B  magic "RPACKv2\n"
//	records  one per member, in append order:
//	           magic "RREC" (4 B) | nameLen uint32 | size uint64
//	           name (nameLen B) | payload (size B)
//	           checksum uint64 — Checksum of the payload
//	index    one entry per member, sorted by name:
//	           nameLen uint32 | size uint64 | checksum uint64
//	           offset uint64 (payload start) | name
//	footer  40 B  indexOffset | indexSize | count | indexChecksum
//	              | magic "RPACKEND"
//
// Every stored checksum is CRC-32C (Castagnoli), zero-extended into its
// 8-byte slot (see Checksum). Format v1 ("RPACKv1\n") had the same layout
// with FNV-64a sums; Open and OpenReader refuse it with errs.ErrInvalid,
// naming the format. The payload checksum trails the payload so writing
// streams in one pass; the index repeats it so readers never touch record
// headers. A pack is staged data, a deterministic function of the corpus
// it was exported from: one whose footer or index did not land (a crash,
// a failed append) is refused with errs.ErrCorrupt naming the file, and is
// re-created by exporting its input again, never patched up.
package packstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/errs"
)

// Format constants. Changing any of these is a format break.
const (
	headerMagic = "RPACKv2\n"
	footerMagic = "RPACKEND"
	recordMagic = "RREC"

	headerLen       = len(headerMagic)
	recordPrefixLen = 4 + 4 + 8 // magic, nameLen, size
	checksumLen     = 8
	footerLen       = 8 + 8 + 8 + 8 + len(footerMagic)

	// MaxNameLen bounds member names; it doubles as a sanity check when
	// decoding an index read from disk.
	MaxNameLen = 1 << 16
)

// headerMagicV1 opens a pack of the FNV-64a format, named only so that
// opening one says what it is.
const headerMagicV1 = "RPACKv1\n"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum advances a running pack checksum over p; a whole payload's sum
// is Checksum(0, payload), fed in any split. It is CRC-32C, which
// hash/crc32 runs on the CPU's CRC instructions at memory speed, widened
// to the 8-byte slots the format stores. Every site that writes or checks
// a stored sum — Writer.Append, an exporter feeding AppendSummed,
// verification and vfs's verified import — calls this name.
func Checksum(sum uint64, p []byte) uint64 {
	return uint64(crc32.Update(uint32(sum), castagnoli, p))
}

// Member describes one file stored in a pack.
type Member struct {
	// Name is the member's slash-separated corpus name, unique per pack.
	Name string
	// Size is the payload length in bytes.
	Size int64
	// Checksum is the payload's pack checksum: Checksum(0, payload).
	Checksum uint64
	// Offset is the payload's byte offset within the pack file.
	Offset int64
}

// Writer appends members to a single pack file. Append streams payloads
// straight to disk (one pass, checksummed on the fly); Close writes the
// sorted index and footer and syncs. A Writer whose Append failed is
// poisoned: Close then leaves a torn file, with no index or footer, that
// Open refuses, and reports the original error.
//
// Append-path allocation discipline: the record-prefix scratch, the
// streaming copy window and the checksum state all live on the Writer and
// are reused across appends — exporting a million members costs a handful
// of allocations, not a hasher plus copy buffer per member.
type Writer struct {
	f       *os.File
	bw      *bufio.Writer
	path    string
	off     int64
	data    int64 // summed payload bytes of the booked members
	members []Member
	names   map[string]struct{}
	err     error
	closed  bool
	buf     [recordPrefixLen]byte
	copyBuf []byte // streaming window, reused across Append calls
}

// writeBufPool recycles Writers' output buffers: a ShardWriter rolling
// from one shard to the next writes the next through the buffer the last
// one's Close gave back.
var writeBufPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 256*1024) },
}

// Create opens a new pack file at path, truncating any existing file,
// and writes the header.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("packstore: create: %w", err)
	}
	bw := writeBufPool.Get().(*bufio.Writer)
	bw.Reset(f)
	w := &Writer{
		f:     f,
		bw:    bw,
		path:  path,
		names: make(map[string]struct{}),
	}
	if _, err := w.bw.WriteString(headerMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("packstore: create %s: %w", path, err)
	}
	w.off = int64(headerLen)
	return w, nil
}

// Count returns the number of members appended so far.
func (w *Writer) Count() int { return len(w.members) }

// DataSize returns the summed payload bytes appended so far — the
// quantity shard rolling is measured against, kept as a running total so
// filling a shard stays linear in its members.
func (w *Writer) DataSize() int64 { return w.data }

// checkName validates a member name for storage.
func checkName(name string) error {
	switch {
	case name == "":
		return errs.Invalid("packstore: empty member name")
	case len(name) >= MaxNameLen:
		return errs.Invalid("packstore: member name %.40q... exceeds %d bytes", name, MaxNameLen)
	case strings.ContainsRune(name, 0):
		return errs.Invalid("packstore: member name %q contains NUL", name)
	}
	return nil
}

// beginRecord validates the member and writes the record prefix and
// name, returning the payload offset.
func (w *Writer) beginRecord(name string, size int64) (int64, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, fmt.Errorf("packstore: append to closed writer %s", w.path)
	}
	if err := checkName(name); err != nil {
		return 0, err
	}
	if _, dup := w.names[name]; dup {
		return 0, errs.Invalid("packstore: duplicate member %q", name)
	}
	if size < 0 {
		return 0, errs.Invalid("packstore: member %q has negative size %d", name, size)
	}
	// Record prefix: magic, nameLen, size.
	b := w.buf[:]
	copy(b, recordMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(name)))
	binary.LittleEndian.PutUint64(b[8:], uint64(size))
	if _, err := w.bw.Write(b); err != nil {
		return 0, w.fail(err)
	}
	if _, err := w.bw.WriteString(name); err != nil {
		return 0, w.fail(err)
	}
	return w.off + int64(recordPrefixLen) + int64(len(name)), nil
}

// endRecord writes the trailing checksum and books the member.
func (w *Writer) endRecord(name string, size, payloadOff int64, sum uint64) error {
	var sumBuf [checksumLen]byte
	binary.LittleEndian.PutUint64(sumBuf[:], sum)
	if _, err := w.bw.Write(sumBuf[:]); err != nil {
		return w.fail(err)
	}
	w.members = append(w.members, Member{
		Name:     name,
		Size:     size,
		Checksum: sum,
		Offset:   payloadOff,
	})
	w.names[name] = struct{}{}
	w.data += size
	w.off = payloadOff + size + checksumLen
	return nil
}

// Append stores one member whose content comes from r. The reader must
// yield exactly size bytes; shorter or longer content is an error, since
// a silently mis-sized member would corrupt every later offset.
func (w *Writer) Append(name string, size int64, r io.Reader) error {
	payloadOff, err := w.beginRecord(name, size)
	if err != nil {
		return err
	}
	// Stream through the reused window, folding the checksum inline. The
	// window is capped at the remaining byte count so the reader can never
	// over-deliver into the record.
	if w.copyBuf == nil {
		w.copyBuf = make([]byte, 64*1024)
	}
	var h uint64
	var n int64
	for n < size {
		want := int64(len(w.copyBuf))
		if size-n < want {
			want = size - n
		}
		m, rerr := r.Read(w.copyBuf[:want])
		if m > 0 {
			if _, werr := w.bw.Write(w.copyBuf[:m]); werr != nil {
				return w.fail(werr)
			}
			h = Checksum(h, w.copyBuf[:m])
			n += int64(m)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return w.fail(fmt.Errorf("packstore: member %q: %w", name, rerr))
		}
	}
	if n != size {
		return w.fail(errs.Corrupt("packstore: member %q declared %d bytes but content has %d", name, size, n))
	}
	// The source must be exhausted: extra bytes are as corrupt as missing
	// ones (mirrors vfs.ReadInto).
	var probe [1]byte
	if m, _ := r.Read(probe[:]); m > 0 {
		return w.fail(errs.Corrupt("packstore: member %q declared %d bytes but content has more", name, size))
	}
	return w.endRecord(name, size, payloadOff, h)
}

// AppendSummed stores one member whose payload is already in memory and
// whose pack checksum — Checksum(0, data) — the caller has already
// folded, so a pipelined exporter hashes on the goroutine that loaded the
// bytes and this one only writes. The sum is recorded as given: every
// reader checks it against the payload (Set.VerifyCtx,
// vfs.ImportPackVerifiedCtx), so a wrong one is found at the first
// verified read, naming the member, exactly as damage on disk
// would be.
func (w *Writer) AppendSummed(name string, data []byte, sum uint64) error {
	payloadOff, err := w.beginRecord(name, int64(len(data)))
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(data); err != nil {
		return w.fail(err)
	}
	return w.endRecord(name, int64(len(data)), payloadOff, sum)
}

// fail poisons the writer: the pack's tail is now a partial record, so
// finalising would index garbage. Close will surface this error.
func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// Close writes the sorted index and footer, flushes, syncs and closes
// the file. On a poisoned writer it closes the file without finalising
// (leaving a torn pack that Open refuses) and returns the append error.
func (w *Writer) Close() (err error) {
	if w.closed {
		return fmt.Errorf("packstore: writer %s already closed", w.path)
	}
	w.closed = true
	// The descriptor and the buffer are released however finalising goes;
	// the descriptor's own error is the result only when nothing failed
	// before it.
	defer func() {
		w.bw.Reset(nil)
		writeBufPool.Put(w.bw)
		w.bw = nil
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("packstore: close %s: %w", w.path, cerr)
		}
	}()
	if w.err != nil {
		w.bw.Flush()
		return w.err
	}
	sorted := append([]Member(nil), w.members...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	index := encodeIndex(sorted)
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:], uint64(w.off))
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(index)))
	binary.LittleEndian.PutUint64(footer[16:], uint64(len(sorted)))
	binary.LittleEndian.PutUint64(footer[24:], Checksum(0, index))
	copy(footer[32:], footerMagic)
	// A bufio.Writer's error is sticky: Flush reports whichever write
	// failed first.
	w.bw.Write(index)
	w.bw.Write(footer[:])
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("packstore: finalize %s: %w", w.path, err)
	}
	// Durable store: a pack that Close reported written survives a crash.
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("packstore: sync %s: %w", w.path, err)
	}
	return nil
}

// encodeIndex serialises index entries in the given (sorted) order.
func encodeIndex(members []Member) []byte {
	size := 0
	for _, m := range members {
		size += 4 + 8 + 8 + 8 + len(m.Name)
	}
	out := make([]byte, 0, size)
	var b [28]byte
	for _, m := range members {
		binary.LittleEndian.PutUint32(b[0:], uint32(len(m.Name)))
		binary.LittleEndian.PutUint64(b[4:], uint64(m.Size))
		binary.LittleEndian.PutUint64(b[12:], m.Checksum)
		binary.LittleEndian.PutUint64(b[20:], uint64(m.Offset))
		out = append(out, b[:]...)
		out = append(out, m.Name...)
	}
	return out
}
