//go:build linux && !packstore_nommap

package packstore

import "syscall"

// adviseSequential hints read-ahead for a front-to-back scan of the
// mapping.
func adviseSequential(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return syscall.Madvise(data, syscall.MADV_SEQUENTIAL)
}
