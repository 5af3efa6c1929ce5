package fnv64_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fnv64"
	"repro/internal/packstore"
)

func oracle(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// TestFoldEqualsHashFNV holds every form of the fold to the standard
// library on random bytes: each length that exercises the unrolled body
// and its tail, cut in two at every offset, byte by byte through
// MemberStep, and one buffer large enough to run the unrolled loop for
// real.
func TestFoldEqualsHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for n := 0; n <= 64; n++ {
		p := make([]byte, n)
		rng.Read(p)
		want := oracle(p)
		if got := fnv64.FoldString(fnv64.Offset, string(p)); got != want {
			t.Fatalf("FoldString, %d bytes: %x, hash/fnv %x", n, got, want)
		}
		step := fnv64.MemberInit
		for _, c := range p {
			step = fnv64.MemberStep(step, c)
		}
		if step != want {
			t.Fatalf("MemberStep, %d bytes: %x, hash/fnv %x", n, step, want)
		}
		for cut := 0; cut <= n; cut++ {
			if got := fnv64.Fold(fnv64.Fold(fnv64.Offset, p[:cut]), p[cut:]); got != want {
				t.Fatalf("Fold, %d bytes cut at %d: %x, hash/fnv %x", n, cut, got, want)
			}
			if got := fnv64.MemberChecksum(fnv64.MemberChecksum(fnv64.MemberInit, p[:cut]), p[cut:]); got != want {
				t.Fatalf("MemberChecksum, %d bytes cut at %d: %x, hash/fnv %x", n, cut, got, want)
			}
		}
	}
	big := make([]byte, 1<<20)
	rng.Read(big)
	want := oracle(big)
	for _, cut := range []int{0, 1, 7, 8, 9, 4095, 1 << 19, 1<<20 - 1, 1 << 20} {
		if got := fnv64.Fold(fnv64.Fold(fnv64.Offset, big[:cut]), big[cut:]); got != want {
			t.Fatalf("Fold, 1 MiB cut at %d: %x, hash/fnv %x", cut, got, want)
		}
	}
}

// checkLockstep folds members through MemberChecksums in two calls, cut
// at cut bytes into each member, and holds every lane to hash/fnv over
// that member alone.
func checkLockstep(t *testing.T, members [4][]byte, cut int) {
	t.Helper()
	var head, tail [4][]byte
	for k, m := range members {
		c := min(cut, len(m))
		head[k], tail[k] = m[:c], m[c:]
	}
	sums := [4]uint64{fnv64.MemberInit, fnv64.MemberInit, fnv64.MemberInit, fnv64.MemberInit}
	fnv64.MemberChecksums(&sums, &head)
	fnv64.MemberChecksums(&sums, &tail)
	for k, m := range members {
		if want := oracle(m); sums[k] != want {
			t.Fatalf("lane %d (%d bytes), cut at %d: %x, hash/fnv %x", k, len(m), cut, sums[k], want)
		}
	}
}

// TestMemberChecksumsEqualsHashFNV: the lockstep fold gives every member
// the sum hash/fnv gives it alone, for one to four members of unequal
// lengths — empty lanes, 1 MiB members, members that run out at every
// round of the fold — and fed in any split.
func TestMemberChecksumsEqualsHashFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const mib = 1 << 20
	for _, lens := range [][4]int{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, mib},
		{mib, mib, 0, 0},
		{mib, 7, mib - 1, 0},
		{mib, mib, mib, mib},
		{3, mib + 9, 0, mib},
		{1, 2, 3, 4},
		{64, 8, 0, 63},
	} {
		var members [4][]byte
		for k, n := range lens {
			if n > 0 {
				members[k] = make([]byte, n)
				rng.Read(members[k])
			}
		}
		for _, cut := range []int{0, 1, 5, 4096, mib} {
			checkLockstep(t, members, cut)
		}
	}
}

// FuzzMemberChecksums: random lane occupancy, lengths and bytes, each
// lane held to one MemberChecksum over its member.
func FuzzMemberChecksums(f *testing.F) {
	f.Add(uint8(0xf), uint16(3), uint16(9), uint16(9), uint16(40), []byte("the quick brown fox jumps over the lazy dog"))
	f.Add(uint8(0x5), uint16(0), uint16(0), uint16(1), uint16(2), []byte{0, 1, 2})
	f.Add(uint8(0x8), uint16(100), uint16(1), uint16(1), uint16(1), make([]byte, 300))
	f.Fuzz(func(t *testing.T, lanes uint8, a, b, c, cut uint16, data []byte) {
		// Three cut points split data into four members of any lengths; a
		// lane whose bit is clear in lanes is left empty.
		cuts := []int{int(a) % (len(data) + 1), int(b) % (len(data) + 1), int(c) % (len(data) + 1)}
		slices.Sort(cuts)
		bounds := []int{0, cuts[0], cuts[1], cuts[2], len(data)}
		var members [4][]byte
		for k := range members {
			if lanes&(1<<k) != 0 {
				members[k] = data[bounds[k]:bounds[k+1]]
			}
		}
		sums := [4]uint64{1, 2, 3, 4}
		var head, tail [4][]byte
		for k, m := range members {
			c := min(int(cut), len(m))
			head[k], tail[k] = m[:c], m[c:]
		}
		fnv64.MemberChecksums(&sums, &head)
		fnv64.MemberChecksums(&sums, &tail)
		for k, m := range members {
			if want := fnv64.MemberChecksum(uint64(k+1), m); sums[k] != want {
				t.Fatalf("lane %d (%d bytes): %x, MemberChecksum %x", k, len(m), sums[k], want)
			}
		}
	})
}

// BenchmarkMemberChecksums folds one, two and four 1 MiB members per call:
// MB/s counts every member's bytes, so the lockstep's gain over one chain
// reads straight off the three rates.
func BenchmarkMemberChecksums(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var all [4][]byte
	for k := range all {
		all[k] = make([]byte, 1<<20)
		rng.Read(all[k])
	}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			var members [4][]byte
			copy(members[:n], all[:n])
			var sums [4]uint64
			b.SetBytes(int64(n) << 20)
			for i := 0; i < b.N; i++ {
				fnv64.MemberChecksums(&sums, &members)
			}
			sink = sums[0]
		})
	}
}

var sink uint64

func TestFoldU64IsLittleEndianBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		v := rng.Uint64()
		var buf [8]byte
		for j := range buf {
			buf[j] = byte(v >> (8 * j))
		}
		if got, want := fnv64.FoldU64(fnv64.Offset, v), oracle(buf[:]); got != want {
			t.Fatalf("FoldU64(%#x) = %x, hash/fnv over its bytes %x", v, got, want)
		}
	}
}

// TestMemberChecksumMatchesRecordedValues pins the content hash to
// values recorded before it had one home: the published FNV-1a vectors,
// the sum the scan engine's checksum kernel produced for a fixed buffer
// at PR 21, and the sum a pack written today stores for the same bytes.
// A change of content hash re-records them and bumps the pack magic.
func TestMemberChecksumMatchesRecordedValues(t *testing.T) {
	buf := make([]byte, 4099)
	for i := range buf {
		buf[i] = byte((i*31 + 7) % 251)
	}
	for _, c := range []struct {
		in   []byte
		want uint64
	}{
		{nil, 0xcbf29ce484222325},
		{[]byte("a"), 0xaf63dc4c8601ec8c},
		{[]byte("foobar"), 0x85944171f73967e8},
		{buf, 0xdc45a98d7291af51},
	} {
		if got := fnv64.MemberChecksum(fnv64.MemberInit, c.in); got != c.want {
			t.Errorf("MemberChecksum of %d bytes = %#x, recorded %#x", len(c.in), got, c.want)
		}
	}

	path := filepath.Join(t.TempDir(), "one.pack")
	w, err := packstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("m", int64(len(buf)), bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := packstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if m, _ := p.Lookup("m"); m.Checksum != 0xdc45a98d7291af51 {
		t.Errorf("pack stored checksum %#x for the fixed buffer, recorded 0xdc45a98d7291af51", m.Checksum)
	}
}
