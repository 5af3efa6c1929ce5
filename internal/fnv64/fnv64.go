// Package fnv64 is the one home of the FNV-64a fold every layer hashes
// with — the same function hash/fnv computes, but as a plain function
// over a running uint64 so the state stays in a register and a sum costs
// no allocation or interface call. It imports nothing.
//
// Two kinds of caller share it. Identity folds — corpus and plan
// fingerprints, the pack index sum, the journal header sum, seed mixing,
// the fault injector's decisions — hash a few bytes of metadata and call
// Fold / FoldString / FoldU64 from Offset. Content folds hash every byte
// of every member and call MemberChecksum from MemberInit (or
// MemberChecksums, four members in lockstep, where one goroutine holds
// several, or MemberStep, a byte at a time inside another kernel's loop):
// those names are the single statement of "a member's checksum is
// FNV-64a", so changing the content hash is an edit here plus a pack
// magic bump.
package fnv64

const (
	// Offset is the FNV-64a offset basis: the state of a sum over no bytes.
	Offset uint64 = 0xcbf29ce484222325
	prime         = 0x100000001b3
)

// Fold advances the running FNV-64a state over p. The hash is one
// serial xor-multiply chain — unrolling cannot overlap the multiplies —
// but consuming eight bytes per iteration removes seven loop-bound checks
// and branches per chain step, bit-identical to the byte loop.
func Fold(h uint64, p []byte) uint64 {
	for len(p) >= 8 {
		h = (h ^ uint64(p[0])) * prime
		h = (h ^ uint64(p[1])) * prime
		h = (h ^ uint64(p[2])) * prime
		h = (h ^ uint64(p[3])) * prime
		h = (h ^ uint64(p[4])) * prime
		h = (h ^ uint64(p[5])) * prime
		h = (h ^ uint64(p[6])) * prime
		h = (h ^ uint64(p[7])) * prime
		p = p[8:]
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// FoldString is Fold over a string's bytes, without converting it.
func FoldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return h
}

// FoldU64 folds v as its eight little-endian bytes.
func FoldU64(h, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xff)) * prime
	}
	return h
}

// MemberInit is the state of a member checksum over no bytes.
const MemberInit = Offset

// MemberChecksum advances a member's running content checksum over p;
// a whole member's checksum is MemberChecksum(MemberInit, content), fed
// in any split. Every site that hashes member content — the scan
// engine's checksum kernel, the pack writer, pack verification and the
// verified pack import — calls this name, so the stored sums, the
// manifests and the kernel agree by construction.
func MemberChecksum(h uint64, p []byte) uint64 { return Fold(h, p) }

// MemberStep advances a member checksum by one byte: MemberChecksum(h, p)
// is MemberStep applied to p's bytes in turn. It is for a per-byte loop
// that carries the checksum beside a chain of its own — the matcher's
// bitap step — so the two latency-bound chains overlap in one loop
// instead of each paying a pass.
func MemberStep(h uint64, c byte) uint64 { return (h ^ uint64(c)) * prime }

// MemberChecksums advances four independent member checksums at once:
// sums[k] = MemberChecksum(sums[k], members[k]) for each k, bit for bit.
// FNV-64a is latency-bound — each byte's multiply waits on the previous
// one's — so one chain leaves the multiplier idle three cycles in four;
// four members folded in one loop keep it busy and run ≈ 3.8 × the rate
// of four MemberChecksum calls. The lanes with bytes left run together
// over the shortest of them, round after round, and the last one finishes
// alone. An empty lane is left as it is, so a batch of fewer than four
// members passes nil for the rest.
func MemberChecksums(sums *[4]uint64, members *[4][]byte) {
	p := *members
	for {
		live, short := 0, -1
		for k := range p {
			if len(p[k]) > 0 {
				live++
				if short < 0 || len(p[k]) < len(p[short]) {
					short = k
				}
			}
		}
		if live <= 1 {
			if live == 1 {
				sums[short] = MemberChecksum(sums[short], p[short])
			}
			return
		}
		n := len(p[short])
		// A spent lane borrows the shortest lane's bytes and folds them into
		// a sum nobody reads: a fifth chain would cost the same loop.
		h := *sums
		var q [4][]byte
		for k := range p {
			q[k] = p[short]
			if len(p[k]) > 0 {
				q[k] = p[k][:n]
			}
		}
		fold4(&h, &q)
		for k := range p {
			if len(p[k]) > 0 {
				sums[k], p[k] = h[k], p[k][n:]
			}
		}
	}
}

// fold4 runs four FNV-64a chains over four equally long slices in one
// loop. A byte at a time per lane is as fast as word loads here: four
// chains already fill the multiplier.
func fold4(h *[4]uint64, p *[4][]byte) {
	h0, h1, h2, h3 := h[0], h[1], h[2], h[3]
	p0 := p[0]
	n := len(p0)
	p1, p2, p3 := p[1][:n], p[2][:n], p[3][:n]
	for i := 0; i < n; i++ {
		h0 = (h0 ^ uint64(p0[i])) * prime
		h1 = (h1 ^ uint64(p1[i])) * prime
		h2 = (h2 ^ uint64(p2[i])) * prime
		h3 = (h3 ^ uint64(p3[i])) * prime
	}
	h[0], h[1], h[2], h[3] = h0, h1, h2, h3
}
