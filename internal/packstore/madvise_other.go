//go:build !linux || packstore_nommap

package packstore

// adviseSequential is a no-op where the syscall package has no madvise
// (darwin) or there is no mapping to advise on; the hint is best effort
// by contract.
func adviseSequential([]byte) error { return nil }
