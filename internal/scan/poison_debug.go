//go:build scandebug

package scan

// poisonByte overwrites every recycled block buffer in scandebug builds:
// a kernel that illegally retained a Block slice sees 0xDB garbage
// instead of stale-but-plausible bytes, turning a silent corruption into
// a loud test failure.
const poisonByte = 0xDB

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
