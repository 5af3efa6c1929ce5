package fnv64_test

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/fnv64"
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
// values recorded before it had one home: the published FNV-1a vectors
// and the sum the scan engine's checksum kernel produced for a fixed
// buffer. Manifests and measurement digests carry this value, so a change
// of content hash re-records them. (What a pack stores for the same
// buffer is pinned in packstore:TestStoredChecksumIsCRC32C.)
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
}
