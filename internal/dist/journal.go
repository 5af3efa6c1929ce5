package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/errs"
	"repro/internal/fnv64"
)

// Journal is the coordinator's checkpoint: an append-only on-disk log
// of completed task states, so a run killed partway (coordinator crash,
// SIGKILL, power loss) can resume and re-scan only the tasks that never
// finished. It records exactly what the merge frontier folds — each
// task's serialized kernel states (scan.StateCodec snapshots) — so a
// resumed run folds the journaled states through the identical
// Fork→Restore→Merge path and its output is bit-identical to an
// uninterrupted run.
//
// Format (all integers little-endian):
//
//	header:  magic "RJRNLv2\n" | plan fingerprint u64 | spec length u32 |
//	         spec JSON | FNV-64a u64 (over fingerprint + spec)
//	records: one record.go frame per completed task — the same bytes a
//	         worker answers /v1/scan with
//
// The header pins the journal to one (plan, spec): resuming against a
// different corpus or kernel set refuses with ErrInvalid instead of
// folding foreign states. Unlike a pack shard, which is re-exported from
// its input, a journal is the only record of the work it holds, so
// loading tolerates a torn tail — a record cut short by the crash that
// made the journal useful is dropped and the file truncated to the last
// complete record — but corruption *before* the tail is a loud
// ErrCorrupt. A journal is a
// per-run checkpoint, so the format carries no compatibility: a file of
// an older version is refused, not migrated.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	resumed map[int][][]byte
	closed  bool
}

const journalMagic = "RJRNLv2\n"

// journalMagicV1 is the pre-CRC format (FNV-64a record trailers), named
// only so that opening one says what it is.
const journalMagicV1 = "RJRNLv1\n"

// journalHeader builds the serialized header for (planFP, spec).
func journalHeader(planFP uint64, spec Spec) ([]byte, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, errs.Invalid("dist: journal: encoding spec: %v", err)
	}
	buf := make([]byte, 0, len(journalMagic)+8+4+len(specJSON)+8)
	buf = append(buf, journalMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, planFP)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(specJSON)))
	buf = append(buf, specJSON...)
	sum := fnv64.Fold(fnv64.Fold(fnv64.Offset, buf[len(journalMagic):len(journalMagic)+8]), specJSON)
	return binary.LittleEndian.AppendUint64(buf, sum), nil
}

// CreateJournal starts a fresh checkpoint at path for (planFP, spec),
// truncating any existing file — the "start over" mode `pipeline
// -checkpoint` uses when -resume is not given.
func CreateJournal(path string, planFP uint64, spec Spec) (*Journal, error) {
	hdr, err := journalHeader(planFP, spec)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: journal %s: %w", path, err)
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: journal %s: writing header: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path, resumed: map[int][][]byte{}}, nil
}

// OpenJournal resumes the checkpoint at path: it validates the header
// against (planFP, spec) — a mismatch is ErrInvalid, never a silent
// fold of foreign states — loads every complete record, drops a torn
// tail (truncating the file to the last complete record so appends
// continue cleanly), and reports non-tail corruption as ErrCorrupt. A
// missing or empty file starts a fresh journal, so `pipeline -resume`
// works on the first run too.
func OpenJournal(path string, planFP uint64, spec Spec) (*Journal, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) || (err == nil && len(raw) == 0) {
		return CreateJournal(path, planFP, spec)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: journal %s: %w", path, err)
	}
	wantHdr, err := journalHeader(planFP, spec)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(raw, []byte(journalMagicV1)) {
		return nil, errs.Invalid("dist: journal %s is format v1 (FNV record trailers); this build reads and writes v2 — start the run over without -resume", path)
	}
	if !bytes.HasPrefix(raw, []byte(journalMagic)) {
		return nil, errs.Corrupt("dist: journal %s: bad magic", path)
	}
	hdr, err := parseJournalHeader(path, raw)
	if err != nil {
		return nil, err
	}
	if string(raw[:len(hdr)]) != string(wantHdr) {
		return nil, errs.Invalid(
			"dist: journal %s belongs to a different run (plan fingerprint or spec mismatch)", path)
	}
	resumed, goodEnd, err := parseJournalRecords(path, raw, len(hdr))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: journal %s: %w", path, err)
	}
	if err := f.Truncate(int64(goodEnd)); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: journal %s: truncating torn tail: %w", path, err)
	}
	if _, err := f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: journal %s: %w", path, err)
	}
	return &Journal{f: f, path: path, resumed: resumed}, nil
}

// parseJournalHeader validates structure and checksum, returning the
// full header bytes (identity comparison is the caller's).
func parseJournalHeader(path string, raw []byte) ([]byte, error) {
	off := len(journalMagic)
	if len(raw) < off+8+4 {
		return nil, errs.Corrupt("dist: journal %s: truncated header", path)
	}
	specLen := int(binary.LittleEndian.Uint32(raw[off+8:]))
	end := off + 8 + 4 + specLen + 8
	if specLen > len(raw) || end > len(raw) {
		return nil, errs.Corrupt("dist: journal %s: truncated header", path)
	}
	sum := fnv64.Fold(fnv64.Fold(fnv64.Offset, raw[off:off+8]), raw[off+12:off+12+specLen])
	if binary.LittleEndian.Uint64(raw[end-8:]) != sum {
		return nil, errs.Corrupt("dist: journal %s: header checksum mismatch", path)
	}
	return raw[:end], nil
}

// parseJournalRecords walks the record region. A clean cut at the tail
// (crash mid-append) stops the walk; a checksum mismatch on a complete
// record is corruption and fails the load — unless it is the last
// record, which is a garbled tail and dropped like a torn one.
// Duplicate task records keep the first occurrence — it is the one an
// interrupted run's frontier may already have folded. The returned
// states alias raw.
func parseJournalRecords(path string, raw []byte, start int) (map[int][][]byte, int, error) {
	resumed := map[int][][]byte{}
	off := start
	for off < len(raw) {
		task, states, n, err := parseRecord(raw[off:])
		switch {
		case err == errRecordTorn, err == errRecordSum && off+n == len(raw):
			return resumed, off, nil
		case err != nil:
			return nil, 0, errs.Corrupt("dist: journal %s: %v at offset %d", path, err, off)
		}
		off += n
		if _, dup := resumed[task]; !dup {
			resumed[task] = states
		}
	}
	return resumed, off, nil
}

// States returns the journaled task results loaded at open: task index →
// kernel state snapshots. The map is the journal's own; callers must
// not mutate it.
func (j *Journal) States() map[int][][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resumed
}

// Append durably records one completed task's kernel states: the write
// is synced before returning, so a journal entry implies the states
// survive a crash. Called by the coordinator the moment a task wins;
// a failed append fails the run (a checkpoint that silently loses
// entries is worse than none), and Measure names the stage.
func (j *Journal) Append(task int, states [][]byte) error {
	buf := appendRecord(nil, task, states)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errs.Invalid("journal %s: append after close", j.path)
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal %s: appending task %d: %w", j.path, task, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal %s: syncing task %d: %w", j.path, task, err)
	}
	return nil
}

// Close releases the journal file. The file itself stays on disk — it
// is the resume artifact.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
