package packstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errs"
)

// crc32c is the oracle for every stored pack sum: CRC-32C straight from
// the standard library, zero-extended to the 8-byte slot.
func crc32c(p []byte) uint64 {
	return uint64(crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
}

// testMembers builds a deterministic member set with varied sizes,
// including empty and nested names.
func testMembers(n int) []struct {
	name string
	data []byte
} {
	out := make([]struct {
		name string
		data []byte
	}, n)
	for i := range out {
		out[i].name = fmt.Sprintf("dir%d/file-%04d.txt", i%3, i)
		size := (i * 37) % 4096
		data := make([]byte, size)
		for j := range data {
			data[j] = byte((i + j*31) % 251)
		}
		out[i].data = data
	}
	return out
}

// appendBytes appends an in-memory payload under the pack checksum
// folded here: what an exporter does on its loading goroutines.
func appendBytes(w interface {
	AppendSummed(name string, data []byte, sum uint64) error
}, name string, data []byte) error {
	return w.AppendSummed(name, data, crc32c(data))
}

// writePack writes the given members into a single pack at path.
func writePack(t *testing.T, path string, members []struct {
	name string
	data []byte
}) {
	t.Helper()
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if err := appendBytes(w, m.name, m.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// VerifyCtx is Set.VerifyCtx over one pack: every member's payload
// checked against the index, four consecutive members per task, the
// first bad member in name order reported at any worker count.
func (p *Pack) VerifyCtx(ctx context.Context, workers int) error {
	members := make([]packMember, len(p.members))
	for i, m := range p.members {
		members[i] = packMember{p, m}
	}
	return verifyAll(ctx, workers, members)
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.pack")
	members := testMembers(50)
	writePack(t, path, members)

	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Len() != len(members) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(members))
	}
	for _, m := range members {
		got, ok := memberNamed(p, m.name)
		if !ok {
			t.Fatalf("member %q missing", m.name)
		}
		if got.Size != int64(len(m.data)) {
			t.Fatalf("member %q size %d, want %d", m.name, got.Size, len(m.data))
		}
		data, err := io.ReadAll(p.SectionReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, m.data) {
			t.Fatalf("member %q bytes differ", m.name)
		}
	}
	// Members() is sorted by name.
	ms := p.Members()
	for i := 1; i < len(ms); i++ {
		if ms[i-1].Name >= ms[i].Name {
			t.Fatalf("members not sorted: %q >= %q", ms[i-1].Name, ms[i].Name)
		}
	}
	if err := p.VerifyCtx(context.Background(), 0); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestDeterministicBytes(t *testing.T) {
	dir := t.TempDir()
	members := testMembers(30)
	writePack(t, filepath.Join(dir, "a.pack"), members)
	writePack(t, filepath.Join(dir, "b.pack"), members)
	a, err := os.ReadFile(filepath.Join(dir, "a.pack"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "b.pack"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("packing the same members twice produced different bytes")
	}
}

func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, "a.pack"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(w, "", nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := appendBytes(w, "ok", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(w, "ok", []byte("y")); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := w.Append("short", 5, strings.NewReader("abc")); err == nil {
		t.Error("short content accepted")
	}
	// A failed append poisons the writer: Close must refuse to finalise.
	if err := w.Close(); err == nil {
		t.Error("Close after failed append did not report the error")
	}
}

func TestAppendRejectsLongContent(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(filepath.Join(dir, "a.pack"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("long", 2, strings.NewReader("abcdef")); err == nil {
		t.Error("over-long content accepted")
	}
	w.Close()
}

func TestEmptyPack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.pack")
	writePack(t, path, nil)
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Len() != 0 {
		t.Fatalf("Len = %d, want 0", p.Len())
	}
	if err := p.VerifyCtx(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptPayloadCaughtByVerify(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.pack")
	members := testMembers(20)
	writePack(t, path, members)

	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a member with a non-empty payload and flip one byte of it.
	var victim Member
	for _, m := range p.Members() {
		if m.Size > 0 {
			victim = m
			break
		}
	}
	p.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[victim.Offset+victim.Size/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(path) // index untouched: strict open still succeeds
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, workers := range []int{1, 2, 8} {
		err := p2.VerifyCtx(context.Background(), workers)
		if err == nil {
			t.Fatalf("Verify(%d) missed a flipped payload byte", workers)
		}
		if !errors.Is(err, errs.ErrCorrupt) {
			t.Fatalf("Verify(%d): errors.Is(err, ErrCorrupt) = false: %v", workers, err)
		}
		var se *errs.StageError
		if !errors.As(err, &se) || se.File != victim.Name {
			t.Fatalf("Verify(%d) blamed the wrong member: %v", workers, err)
		}
	}
}

// TestWrongSumIsFoundByVerify: AppendSummed records the checksum its
// caller folded without re-deriving it, so a caller that hands over the
// wrong one writes a pack that opens — the index agrees with the record —
// and that Pack.VerifyCtx and Set.VerifyCtx both fail with ErrCorrupt
// naming the member, as they do for a damaged payload. The writer taking
// the sum on trust weakens nothing a reader relies on.
func TestWrongSumIsFoundByVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wrong.pack")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "bad", "c"} {
		data := []byte("payload of " + name)
		sum := crc32c(data)
		if name == "bad" {
			sum ^= 1
		}
		if err := w.AppendSummed(name, data, sum); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := Open(path)
	if err != nil {
		t.Fatalf("a pack with a wrongly summed member must still open: %v", err)
	}
	defer p.Close()
	set, err := OpenSet(path)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	for _, workers := range []int{1, 4} {
		for via, err := range map[string]error{
			"Pack.VerifyCtx": p.VerifyCtx(context.Background(), workers),
			"Set.VerifyCtx":  set.VerifyCtx(context.Background(), workers),
		} {
			var se *errs.StageError
			if !errors.Is(err, errs.ErrCorrupt) || !errors.As(err, &se) || se.File != "bad" {
				t.Errorf("%s(%d) = %v, want ErrCorrupt naming the wrongly summed member", via, workers, err)
			}
		}
	}
}

// TestWideSumIsRefusedAtOpen: a stored sum is a CRC-32C widened to eight
// bytes, and readers keep its 32 bits, so a sum with any upper bit set is
// a malformed index, refused by every open with ErrCorrupt naming the
// member and the file.
func TestWideSumIsRefusedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.pack")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("payload")
	if err := w.AppendSummed("wide", data, crc32c(data)|1<<40); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, errs.ErrCorrupt) || !strings.Contains(err.Error(), `"wide"`) || !strings.Contains(err.Error(), path) {
		t.Errorf("Open = %v, want ErrCorrupt naming the member and the file", err)
	}
	if _, err := OpenReader(path); !errors.Is(err, errs.ErrCorrupt) {
		t.Errorf("OpenReader = %v, want ErrCorrupt", err)
	}
}

// TestSetVerifyBlamesFirstBadMemberOfItsBatch: Set.VerifyCtx checks four
// consecutive members per task, each a 64 KiB window at a time, and the
// pool finishes batches in any order. Whichever batch position, window or
// batch the damage is in, the error names the first bad member in (pack,
// name) order and wraps ErrCorrupt.
func TestSetVerifyBlamesFirstBadMemberOfItsBatch(t *testing.T) {
	// Thirteen members over two packs: batches 0–3, 4–7 (a5 | b6 spans the
	// shard boundary), 8–11 and a last batch of one; sizes straddle the
	// 64 KiB read window, and one member is empty.
	sizes := []int{150000, 9, 70001, 65537, 1, 200000, 64 << 10, 0, 90000, 17, 131072, 40, 7}
	const packA = 6 // members 0–5 in a.pack, the rest in b.pack
	names := make([]string, len(sizes))
	for i := range names {
		names[i] = fmt.Sprintf("a-%02d", i)
		if i >= packA {
			names[i] = fmt.Sprintf("b-%02d", i)
		}
	}
	build := func(t *testing.T) []string {
		t.Helper()
		dir := t.TempDir()
		var paths []string
		for _, r := range [][2]int{{0, packA}, {packA, len(sizes)}} {
			var members []struct {
				name string
				data []byte
			}
			for i := r[0]; i < r[1]; i++ {
				data := bytes.Repeat([]byte{byte(i + 1), byte(i * 7)}, sizes[i]/2+1)[:sizes[i]]
				members = append(members, struct {
					name string
					data []byte
				}{names[i], data})
			}
			path := filepath.Join(dir, names[r[0]][:1]+".pack")
			writePack(t, path, members)
			paths = append(paths, path)
		}
		return paths
	}
	// corrupt flips the byte at offset at (negative: from the end) of each
	// named flat member, in whichever pack holds it.
	corrupt := func(t *testing.T, paths []string, bad map[int]int) {
		t.Helper()
		for _, path := range paths {
			p, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			offs := map[int]int64{}
			for i, at := range bad {
				if m, ok := memberNamed(p, names[i]); ok {
					if at < 0 {
						at += int(m.Size)
					}
					offs[i] = m.Offset + int64(at)
				}
			}
			p.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range offs {
				data[off] ^= 0xff
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		bad  map[int]int // flat member index → byte offset flipped
		want int
	}{
		{"batch position 0", map[int]int{4: 0}, 4},
		{"batch position 1", map[int]int{5: 150001}, 5},
		{"batch position 2", map[int]int{6: 65535}, 6},
		{"batch position 3", map[int]int{8: -1}, 8},
		{"two batches, later first in the list", map[int]int{10: 3, 2: 70000}, 2},
		{"two batches, same position", map[int]int{1: 4, 9: 4}, 1},
		{"two in one batch, the later one shorter", map[int]int{5: 199999, 6: 0}, 5},
		{"shortest lane of a batch, its last byte", map[int]int{9: -1}, 9},
		{"the lane left folding alone, its last byte", map[int]int{10: -1}, 10},
		{"the last batch of one", map[int]int{12: -1}, 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			paths := build(t)
			corrupt(t, paths, tc.bad)
			set, err := OpenSet(paths...)
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			for _, workers := range []int{1, 2, 8} {
				err := set.VerifyCtx(context.Background(), workers)
				var se *errs.StageError
				if !errors.Is(err, errs.ErrCorrupt) || !errors.As(err, &se) || se.File != names[tc.want] {
					t.Errorf("workers=%d: %v, want ErrCorrupt naming %s", workers, err, names[tc.want])
				}
			}
		})
	}
}

// TestStoredChecksumIsCRC32C pins what a pack stores, in the record
// trailer, the index entry and the footer, to CRC-32C from hash/crc32 —
// for a fixed 4 099-byte buffer (whose FNV-64a content sum
// fnv64:TestMemberChecksumMatchesRecordedValues pins) also to its recorded
// value — streamed through Append and summed by AppendSummed's caller
// alike.
func TestStoredChecksumIsCRC32C(t *testing.T) {
	buf := make([]byte, 4099)
	for i := range buf {
		buf[i] = byte((i*31 + 7) % 251)
	}
	const recorded = 0x4f3a184d
	if got := crc32c(buf); got != recorded {
		t.Fatalf("CRC-32C of the fixed buffer = %#x, recorded %#x", got, recorded)
	}
	path := filepath.Join(t.TempDir(), "one.pack")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("streamed", int64(len(buf)), bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(w, "summed", buf); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw[:headerLen]); got != "RPACKv2\n" {
		t.Errorf("header magic %q, want RPACKv2", got)
	}
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, m := range p.Members() {
		trailer := binary.LittleEndian.Uint64(raw[m.Offset+m.Size:])
		if m.Checksum != recorded || trailer != recorded {
			t.Errorf("member %s: index sum %#x, record trailer %#x, want %#x", m.Name, m.Checksum, trailer, recorded)
		}
	}
	footer := raw[len(raw)-footerLen:]
	indexOff := binary.LittleEndian.Uint64(footer)
	if got, want := binary.LittleEndian.Uint64(footer[24:]), crc32c(raw[indexOff:len(raw)-footerLen]); got != want {
		t.Errorf("footer index sum %#x, CRC-32C of the index %#x", got, want)
	}
}

func TestCorruptIndexCaughtByOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pack")
	writePack(t, path, testMembers(5))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the index region (just before the footer).
	data[len(data)-footerLen-3] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, errs.ErrCorrupt) {
		t.Fatalf("Open(pack with a corrupt index) = %v, want ErrCorrupt", err)
	}
}

// dataSize sums the payload bytes of every member of every pack.
func dataSize(s *Set) int64 {
	var n int64
	for _, p := range s.packs {
		for _, m := range p.members {
			n += m.Size
		}
	}
	return n
}

func TestShardWriter(t *testing.T) {
	dir := t.TempDir()
	members := testMembers(40)
	var total int64
	sw := NewShardWriter(dir, "shard", 8*1024)
	for _, m := range members {
		if err := appendBytes(sw, m.name, m.data); err != nil {
			t.Fatal(err)
		}
		total += int64(len(m.data))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	paths := sw.Paths()
	if len(paths) < 2 {
		t.Fatalf("expected multiple shards, got %d", len(paths))
	}
	found, err := Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != len(paths) {
		t.Fatalf("Discover found %d packs, writer reported %d", len(found), len(paths))
	}

	set, err := OpenSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Len() != len(members) {
		t.Fatalf("set has %d members, want %d", set.Len(), len(members))
	}
	if got := dataSize(set); got != total {
		t.Fatalf("set data size %d, want %d", got, total)
	}
	for _, workers := range []int{1, 3, 8} {
		if err := set.VerifyCtx(context.Background(), workers); err != nil {
			t.Fatalf("Verify(%d): %v", workers, err)
		}
	}
	// Every member is reachable through exactly one shard.
	seen := make(map[string]bool)
	for _, p := range set.packs {
		for _, m := range p.Members() {
			if seen[m.Name] {
				t.Fatalf("member %q appears in two shards", m.Name)
			}
			seen[m.Name] = true
		}
	}
	if len(seen) != len(members) {
		t.Fatalf("saw %d unique members, want %d", len(seen), len(members))
	}
}

// TestDataSizeIsAppendedBytes: a writer's DataSize is the summed size of
// the members it booked — through Append and AppendSummed, across a
// ShardWriter's rolls (each shard counts its own members), and unchanged
// by an append that fails and poisons the writer.
func TestDataSizeIsAppendedBytes(t *testing.T) {
	sw := NewShardWriter(t.TempDir(), "shard", 8*1024)
	var want int64
	for i, m := range testMembers(40) {
		shards := len(sw.paths)
		var err error
		if i%2 == 0 {
			err = appendBytes(sw, m.name, m.data)
		} else {
			err = sw.Append(m.name, int64(len(m.data)), bytes.NewReader(m.data))
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(sw.paths) != shards {
			want = 0 // rolled: the new shard holds only this member
		}
		want += int64(len(m.data))
		if got := sw.w.DataSize(); got != want {
			t.Fatalf("after member %d (shard %d): DataSize %d, appended %d", i, len(sw.paths), got, want)
		}
	}
	if len(sw.paths) < 2 {
		t.Fatalf("expected the shard writer to roll, got %d shard", len(sw.paths))
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	w, err := Create(filepath.Join(t.TempDir(), "a.pack"))
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(w, "ok", []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("short", 5, strings.NewReader("abc")); err == nil {
		t.Fatal("short content accepted")
	}
	if err := appendBytes(w, "after", []byte("q")); err == nil {
		t.Fatal("append to a poisoned writer accepted")
	}
	if got := w.DataSize(); got != 3 {
		t.Errorf("DataSize after a poisoned append = %d, want the 3 bytes booked before it", got)
	}
	w.Close()
}

func TestShardWriterEmptyLeavesNoFiles(t *testing.T) {
	dir := t.TempDir()
	sw := NewShardWriter(dir, "shard", 1024)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	found, err := Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Fatalf("empty shard writer left %d files", len(found))
	}
}

func TestOversizedMemberGetsOwnShard(t *testing.T) {
	dir := t.TempDir()
	sw := NewShardWriter(dir, "shard", 10)
	big := bytes.Repeat([]byte("x"), 100)
	if err := appendBytes(sw, "small-1", []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(sw, "big", big); err != nil {
		t.Fatal(err)
	}
	if err := appendBytes(sw, "small-2", []byte("cd")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(sw.Paths()); got != 3 {
		t.Fatalf("got %d shards, want 3 (oversized member isolated)", got)
	}
}

func TestSectionReadersShareOneHandle(t *testing.T) {
	// Concurrent reads through many section readers over one pack must
	// not interfere (ReadAt is stateless) — run under -race this is also
	// the fd-safety proof.
	path := filepath.Join(t.TempDir(), "a.pack")
	members := testMembers(32)
	writePack(t, path, members)
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	errc := make(chan error, len(members))
	for _, m := range members {
		m := m
		go func() {
			got, ok := memberNamed(p, m.name)
			if !ok {
				errc <- fmt.Errorf("member %q missing", m.name)
				return
			}
			data, err := io.ReadAll(p.SectionReader(got))
			if err != nil {
				errc <- err
				return
			}
			if !bytes.Equal(data, m.data) {
				errc <- fmt.Errorf("member %q bytes differ", m.name)
				return
			}
			errc <- nil
		}()
	}
	for range members {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}
