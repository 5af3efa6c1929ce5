//go:build darwin && !packstore_nommap

package packstore

import "syscall"

// dirCache holds nothing here: the syscall package has no openat, so
// every file is opened by its whole path.
type dirCache struct{}

func (*dirCache) open(dir, name string) (int, error) { return openFD(dir + name) }

func (*dirCache) close() {}

// openJoined and lstat pass the path as a string: no fstatat either.
func openJoined(dir, name string) (int, error) { return openFD(dir + name) }

func lstat(dir, name string, st *syscall.Stat_t) error { return syscall.Lstat(dir+name, st) }
