// Package fnv64 is the one home of the FNV-64a fold every layer hashes
// with — the same function hash/fnv computes, but as a plain function
// over a running uint64 so the state stays in a register and a sum costs
// no allocation or interface call. It imports nothing.
//
// FNV-64a serves content identity and metadata, not storage integrity
// (packs, the journal and the wire seal their bytes with CRC-32C). Identity
// folds — corpus and plan fingerprints, the journal header sum, seed
// mixing, the fault injector's decisions — hash a few bytes of metadata
// and call Fold / FoldString / FoldU64 from Offset. Content folds hash
// every byte a scan reads — the sums a Measurement and a manifest report —
// and call MemberChecksum from MemberInit (or MemberStep, a byte at a time
// inside another kernel's loop): those names are the single statement of
// "a member's content checksum is FNV-64a", the value the recorded
// manifests and measurement digests pin.
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
// in any split. Every site that hashes scanned content — the scan
// engine's checksum kernel, the matcher that carries it, the kernel
// conformance suite — calls this name, so the manifests and the kernels
// agree by construction.
func MemberChecksum(h uint64, p []byte) uint64 { return Fold(h, p) }

// MemberStep advances a member checksum by one byte: MemberChecksum(h, p)
// is MemberStep applied to p's bytes in turn. It is for a per-byte loop
// that carries the checksum beside a chain of its own — the matcher's
// bitap step — so the two latency-bound chains overlap in one loop
// instead of each paying a pass.
func MemberStep(h uint64, c byte) uint64 { return (h ^ uint64(c)) * prime }
