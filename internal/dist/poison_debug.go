//go:build scandebug

package dist

// poisonByte overwrites every released receive buffer in scandebug
// builds: a Restore that kept a slice of the state bytes it was handed
// sees 0xDB garbage once the next answer may reuse the buffer, instead
// of stale-but-plausible bytes.
const poisonByte = 0xDB

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
