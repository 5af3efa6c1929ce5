package packstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/errs"
)

// truncateTo copies the pack at src truncated to n bytes.
func truncateTo(t *testing.T, src string, n int64) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if n > int64(len(data)) {
		t.Fatalf("truncateTo %d > file size %d", n, len(data))
	}
	dst := src + fmt.Sprintf(".trunc%d", n)
	if err := os.WriteFile(dst, data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestRecoverTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.pack")
	members := testMembers(10)
	writePack(t, path, members)

	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Record where each member's record ends (payload + trailing checksum)
	// so truncation points can be placed precisely.
	ends := make(map[string]int64, p.Len())
	var lastName string
	var lastEnd int64
	for _, m := range p.Members() {
		end := m.Offset + m.Size + checksumLen
		ends[m.Name] = end
		if end > lastEnd {
			lastEnd = end
			lastName = m.Name
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fileSize := info.Size()
	p.Close()

	cases := []struct {
		name string
		cut  int64 // file length after truncation
		want int   // salvaged members
	}{
		{"mid-footer", fileSize - 5, len(members)},
		{"mid-index", lastEnd + 10, len(members)},
		{"index-lost", lastEnd, len(members)},
		{"mid-last-checksum", lastEnd - 3, len(members) - 1},
		{"mid-last-payload", lastEnd - checksumLen - 1, len(members) - 1},
		{"mid-last-header", lastEnd - checksumLen - sizeOfLast(t, path, lastName) - 2, len(members) - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cut := truncateTo(t, path, tc.cut)
			if _, err := Open(cut); err == nil && tc.cut < fileSize {
				t.Fatal("strict Open accepted a truncated pack")
			}
			r, err := RecoverCtx(context.Background(), cut)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.Len() != tc.want {
				t.Fatalf("salvaged %d members, want %d", r.Len(), tc.want)
			}
			if !r.Truncated() {
				t.Error("recovered pack does not report Truncated")
			}
			// Every salvaged member reads back intact.
			for _, m := range members {
				got, ok := r.Lookup(m.name)
				if !ok {
					continue
				}
				data, err := io.ReadAll(r.SectionReader(got))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, m.data) {
					t.Fatalf("salvaged member %q bytes differ", m.name)
				}
			}
			if err := r.VerifyCtx(context.Background(), 0); err != nil {
				t.Fatalf("Verify over salvage: %v", err)
			}
		})
	}
}

// sizeOfLast returns the payload size of the named member.
func sizeOfLast(t *testing.T, path, name string) int64 {
	t.Helper()
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m, ok := p.Lookup(name)
	if !ok {
		t.Fatalf("member %q missing", name)
	}
	return m.Size
}

func TestRecoverIntactPackMatchesOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pack")
	writePack(t, path, testMembers(8))
	p, err := RecoverCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Truncated() {
		t.Error("intact pack recovered as truncated")
	}
	if p.Len() != 8 {
		t.Fatalf("Len = %d, want 8", p.Len())
	}
}

func TestRecoverRejectsNonTailCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pack")
	members := testMembers(10)
	writePack(t, path, members)
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the payload of the earliest non-empty member (which is not
	// the tail), then cut the footer so Recover takes the scan path.
	var first Member
	for _, m := range p.Members() {
		if m.Size == 0 {
			continue
		}
		if first.Name == "" || m.Offset < first.Offset {
			first = m
		}
	}
	if first.Name == "" {
		t.Fatal("no non-empty member to corrupt")
	}
	info, _ := os.Stat(path)
	p.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[first.Offset] ^= 0xFF
	if err := os.WriteFile(path, data[:info.Size()-10], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = RecoverCtx(context.Background(), path)
	if err == nil {
		t.Fatal("Recover accepted corruption in the middle of the pack")
	}
	// The refusal is typed and names the damaged member: the operator
	// learns *which* file to restore, not just that something is wrong.
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Errorf("errors.Is(err, ErrCorrupt) = false: %v", err)
	}
	var se *errs.StageError
	if !errors.As(err, &se) || se.File != first.Name {
		t.Errorf("Recover blamed %v, want member %q", err, first.Name)
	}
}

// TestRecoverCorruptRecordBody flips a byte deep inside an interior
// record's payload — not the tail, not the index — on a pack whose
// footer is also gone. Recover's salvage must refuse with ErrCorrupt
// naming the damaged member rather than resurrect bad bytes.
func TestRecoverCorruptRecordBody(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pack")
	members := testMembers(12)
	writePack(t, path, members)
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Victim: a mid-pack member (neither first nor last by offset) with a
	// payload to damage.
	byOffset := append([]Member(nil), p.Members()...)
	sort.Slice(byOffset, func(i, j int) bool { return byOffset[i].Offset < byOffset[j].Offset })
	var victim Member
	for _, m := range byOffset[1 : len(byOffset)-1] {
		if m.Size > 2 {
			victim = m
			break
		}
	}
	p.Close()
	if victim.Name == "" {
		t.Fatal("no mid-pack member with a payload")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[victim.Offset+victim.Size/2] ^= 0x01
	// Cut the footer so Recover takes the salvage path.
	if err := os.WriteFile(path, data[:len(data)-footerLen], 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = RecoverCtx(context.Background(), path)
	if err == nil {
		t.Fatal("Recover salvaged a pack with a corrupt interior record body")
	}
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Errorf("errors.Is(err, ErrCorrupt) = false: %v", err)
	}
	var se *errs.StageError
	if !errors.As(err, &se) || se.File != victim.Name {
		t.Errorf("Recover blamed %v, want member %q", err, victim.Name)
	}
}

func TestRecoverEmptyAndGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.pack")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverCtx(context.Background(), empty); err == nil {
		t.Error("Recover accepted an empty file")
	}
	garbage := filepath.Join(dir, "garbage.pack")
	if err := os.WriteFile(garbage, []byte("this is not a pack at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverCtx(context.Background(), garbage); err == nil {
		t.Error("Recover accepted a non-pack file")
	}
	// Header only: a pack that crashed before its first complete record
	// recovers to zero members.
	headerOnly := filepath.Join(dir, "header.pack")
	if err := os.WriteFile(headerOnly, []byte(headerMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := RecoverCtx(context.Background(), headerOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Len() != 0 {
		t.Fatalf("salvaged %d members from a header-only pack", p.Len())
	}
}
