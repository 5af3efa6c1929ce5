//go:build scandebug

package packstore

// poisonByte overwrites every released slab in scandebug builds: a caller
// that reads a small file's view after its import closed sees 0xDB
// garbage instead of stale-but-plausible bytes.
const poisonByte = 0xDB

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
