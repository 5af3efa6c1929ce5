package dist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/errs"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.journal")
}

// TestJournalRoundTrip appends records, reopens, and checks every state
// comes back byte for byte.
func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	spec := Spec{Patterns: []string{"a", "b"}, FoldCase: true}
	j, err := CreateJournal(path, 0xdeadbeef, spec)
	if err != nil {
		t.Fatal(err)
	}
	recs := map[int][][]byte{
		0: {[]byte("alpha"), []byte("")},
		3: {[]byte{0x00, 0xff, 0x42}},
		1: {},
	}
	for task, states := range recs {
		if err := j.Append(task, states); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, 0xdeadbeef, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.States()
	if len(got) != len(recs) {
		t.Fatalf("resumed %d tasks, want %d", len(got), len(recs))
	}
	for task, states := range recs {
		rs, ok := got[task]
		if !ok {
			t.Errorf("task %d missing from resumed states", task)
			continue
		}
		if len(rs) != len(states) {
			t.Errorf("task %d: %d states, want %d", task, len(rs), len(states))
			continue
		}
		for i := range states {
			if string(rs[i]) != string(states[i]) {
				t.Errorf("task %d state %d = %q, want %q", task, i, rs[i], states[i])
			}
		}
	}
}

// TestJournalMismatchIsInvalid pins the identity guard: a journal from
// a different plan or a different spec refuses with ErrInvalid.
func TestJournalMismatchIsInvalid(t *testing.T) {
	path := journalPath(t)
	spec := Spec{Patterns: []string{"x"}}
	j, err := CreateJournal(path, 111, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(0, [][]byte{[]byte("s")})
	j.Close()

	if _, err := OpenJournal(path, 222, spec); !errors.Is(err, errs.ErrInvalid) {
		t.Errorf("plan mismatch: err = %v, want ErrInvalid", err)
	}
	if _, err := OpenJournal(path, 111, Spec{Patterns: []string{"y"}}); !errors.Is(err, errs.ErrInvalid) {
		t.Errorf("spec mismatch: err = %v, want ErrInvalid", err)
	}
	if j2, err := OpenJournal(path, 111, spec); err != nil {
		t.Errorf("matching open: err = %v", err)
	} else {
		j2.Close()
	}
}

// TestJournalTornTail simulates a crash mid-append: the incomplete last
// record is dropped, the file truncated back to the last good record,
// and appends continue cleanly from there.
func TestJournalTornTail(t *testing.T) {
	path := journalPath(t)
	spec := Spec{}
	j, err := CreateJournal(path, 7, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(0, [][]byte{[]byte("keep me")})
	j.Append(1, [][]byte{[]byte("also keep")})
	j.Close()

	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Task 1's record: magic(4) + task(4) + nstates(4) + len(4) +
	// "also keep"(9) + checksum(4) = 29 bytes, the file's tail.
	garbled := append([]byte(nil), whole[len(whole)-29:]...)
	if string(garbled[:4]) != recordMagic {
		t.Fatalf("test arithmetic off: tail does not start at a record")
	}
	garbled[18] ^= 0x01 // flip a state byte: complete record, wrong checksum

	for name, tail := range map[string][]byte{
		"cut-mid-record": whole[len(whole)-9 : len(whole)-2],
		"cut-mid-magic":  []byte("JR"),
		"garbled-last":   garbled,
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, append(append([]byte(nil), whole...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(path, 7, spec)
			if err != nil {
				t.Fatalf("torn tail must be tolerated: %v", err)
			}
			if got := len(j2.States()); got != 2 {
				t.Errorf("resumed %d tasks, want 2", got)
			}
			// The file must be usable for further appends.
			if err := j2.Append(2, [][]byte{[]byte("post-recovery")}); err != nil {
				t.Fatal(err)
			}
			j2.Close()
			j3, err := OpenJournal(path, 7, spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(j3.States()); got != 3 {
				t.Errorf("after recovery append: resumed %d tasks, want 3", got)
			}
			j3.Close()
		})
	}
}

// TestJournalMidFileCorruption flips a byte inside the first record's
// body (not the tail): that is data loss, not a torn append, and must
// fail loudly with ErrCorrupt instead of silently dropping records.
func TestJournalMidFileCorruption(t *testing.T) {
	path := journalPath(t)
	spec := Spec{}
	j, err := CreateJournal(path, 7, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(0, [][]byte{[]byte("first record body")})
	j.Append(1, [][]byte{[]byte("second record body")})
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := journalHeader(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 0's state bytes.
	raw[len(hdr)+len(recordMagic)+8+4+3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, 7, spec); !errors.Is(err, errs.ErrCorrupt) {
		t.Errorf("mid-file corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestJournalHeaderCorruption garbles the header checksum region and
// the magic; both must be ErrCorrupt.
func TestJournalHeaderCorruption(t *testing.T) {
	path := journalPath(t)
	spec := Spec{}
	j, err := CreateJournal(path, 9, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	badMagic := append([]byte(nil), raw...)
	badMagic[0] ^= 0x01
	badSum := append([]byte(nil), raw...)
	badSum[len(badSum)-1] ^= 0x01
	for name, b := range map[string][]byte{"bad-magic": badMagic, "bad-checksum": badSum} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenJournal(path, 9, spec); !errors.Is(err, errs.ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestJournalDuplicateKeepsFirst pins the duplicate rule: if a crash
// window lets the same task be appended twice, resume keeps the first
// occurrence — the one an interrupted frontier may already have folded.
func TestJournalDuplicateKeepsFirst(t *testing.T) {
	path := journalPath(t)
	spec := Spec{}
	j, err := CreateJournal(path, 5, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(0, [][]byte{[]byte("first")})
	j.Append(0, [][]byte{[]byte("second")})
	j.Close()

	j2, err := OpenJournal(path, 5, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := map[int][][]byte{0: {[]byte("first")}}
	if !reflect.DeepEqual(j2.States(), want) {
		t.Errorf("States = %v, want %v", j2.States(), want)
	}
}

// TestJournalMissingFileStartsFresh checks OpenJournal on a nonexistent
// path behaves like CreateJournal — first runs need no special casing.
func TestJournalMissingFileStartsFresh(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, 3, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(j.States()) != 0 || j.Len() != 0 {
		t.Errorf("fresh journal not empty: states=%d len=%d", len(j.States()), j.Len())
	}
	if err := j.Append(0, [][]byte{[]byte("s")}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalV1IsRefused pins the version bump: a checkpoint written
// before the record trailer became CRC-32C is refused on resume with an
// error that says which format it is — not misread as corruption — and
// starting over replaces it.
func TestJournalV1IsRefused(t *testing.T) {
	path := journalPath(t)
	spec := Spec{}
	hdr, err := journalHeader(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte("RJRNLv1\n"), hdr[len(journalMagic):]...)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(path, 7, spec)
	if !errors.Is(err, errs.ErrInvalid) || !strings.Contains(err.Error(), "format v1") {
		t.Fatalf("err = %v, want ErrInvalid naming format v1", err)
	}
	j, err := CreateJournal(path, 7, spec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if j, err = OpenJournal(path, 7, spec); err != nil {
		t.Fatalf("reopening the replaced journal: %v", err)
	}
	j.Close()
}
