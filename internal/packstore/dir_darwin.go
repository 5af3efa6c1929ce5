//go:build darwin && !packstore_nommap

package packstore

// dirCache holds nothing here: the syscall package has no openat, so
// every file is opened by its whole path.
type dirCache struct{}

func (*dirCache) open(path string) (int, error) { return openFD(path) }

func (*dirCache) close() {}
