package packstore

// The mapped Reader tests are build-tag agnostic: they exercise whichever
// implementation the build selected (real mmap, or the portable ReaderAt
// fallback under `packstore_nommap` / non-mmap platforms), so CI running
// them under both tags proves the two paths are interchangeable.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mappedFixture writes a pack with a few members of varied sizes
// (including empty) and returns its path plus the payloads by name.
func mappedFixture(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "mapped.pack")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[string][]byte{
		"a/small":  []byte("hello pack"),
		"b/empty":  {},
		"c/binary": bytes.Repeat([]byte{0x00, 0xFF, 0x7F, 'x'}, 1024),
		"d/text":   []byte(strings.Repeat("the quick brown fox. ", 500)),
	}
	// Append in non-sorted order so index sorting is exercised.
	for _, name := range []string{"d/text", "a/small", "c/binary", "b/empty"} {
		if err := appendBytes(w, name, payloads[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, payloads
}

// lookup returns the named member's borrowed payload.
func lookup(r *Reader, name string) ([]byte, bool) {
	i, ok := memberIndex(r.pack, name)
	if !ok {
		return nil, false
	}
	return r.MemberBytes(i), true
}

// memberIndex finds the named member in the pack's name-sorted list.
func memberIndex(p *Pack, name string) (int, bool) {
	return slices.BinarySearchFunc(p.members, name, func(m Member, name string) int { return strings.Compare(m.Name, name) })
}

// memberNamed returns the named member.
func memberNamed(p *Pack, name string) (Member, bool) {
	i, ok := memberIndex(p, name)
	if !ok {
		return Member{}, false
	}
	return p.members[i], true
}

func TestReaderMemberBytesMatchPayloads(t *testing.T) {
	path, payloads := mappedFixture(t)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Pack().Len() != len(payloads) {
		t.Fatalf("Len = %d, want %d", r.Pack().Len(), len(payloads))
	}
	for i, m := range r.Pack().Members() {
		got := r.MemberBytes(i)
		if !bytes.Equal(got, payloads[m.Name]) {
			t.Errorf("MemberBytes(%d) = %d bytes, want payload of %q (%d bytes)",
				i, len(got), m.Name, len(payloads[m.Name]))
		}
		// The view must be capacity-clamped: appending to it must not be
		// able to overwrite the next member in the mapping.
		if cap(got) != len(got) {
			t.Errorf("member %q view cap %d != len %d (not clamped)", m.Name, cap(got), len(got))
		}
		byName, ok := lookup(r, m.Name)
		if !ok {
			t.Fatalf("lookup(%q): no such member", m.Name)
		}
		if !bytes.Equal(byName, got) {
			t.Errorf("lookup(%q) differs from MemberBytes(%d)", m.Name, i)
		}
	}
	if _, ok := lookup(r, "nope"); ok {
		t.Error("lookup of a missing member succeeded")
	}
}

// TestReaderMatchesSectionReader is the zero-copy differential: every
// member's borrowed view must be bit-identical to the bytes the copying
// SectionReader path streams, and the pack must still verify through the
// mapping-backed ReaderAt.
func TestReaderMatchesSectionReader(t *testing.T) {
	path, _ := mappedFixture(t)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, m := range r.Pack().Members() {
		streamed, err := io.ReadAll(r.Pack().SectionReader(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed, r.MemberBytes(i)) {
			t.Errorf("member %q: SectionReader bytes differ from MemberBytes view", m.Name)
		}
	}
	if err := r.Pack().VerifyCtx(context.Background(), 0); err != nil {
		t.Fatalf("Verify through the mapping: %v", err)
	}
}

func TestReaderAdviseAndClose(t *testing.T) {
	path, _ := mappedFixture(t)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	if !MmapSupported && r.mapped {
		t.Error("fallback build reports a real mapping")
	}
	if err := r.AdviseSequential(); err != nil {
		t.Errorf("AdviseSequential: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
}

func TestReaderRejectsCorruptPack(t *testing.T) {
	path, _ := mappedFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the footer: OpenReader must refuse like Open does.
	trunc := filepath.Join(t.TempDir(), "trunc.pack")
	if err := os.WriteFile(trunc, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReader(trunc); err == nil {
		t.Fatal("OpenReader accepted a truncated pack")
	}
}

func TestReaderManyMembersZeroCopyIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "many.pack")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := appendBytes(w, fmt.Sprintf("m-%04d", i), []byte(fmt.Sprintf("payload %d |", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// All views share one backing array: offsets must be strictly
	// increasing within it and contents exact.
	for i := 0; i < r.Pack().Len(); i++ {
		m := r.Pack().Members()[i]
		want := fmt.Sprintf("payload %s |", strings.TrimLeft(m.Name[2:], "0"))
		if m.Name == "m-0000" {
			want = "payload 0 |"
		}
		if got := string(r.MemberBytes(i)); got != want {
			t.Fatalf("member %q = %q, want %q", m.Name, got, want)
		}
	}
}
