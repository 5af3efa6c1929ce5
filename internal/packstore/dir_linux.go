//go:build linux && !packstore_nommap

package packstore

import (
	"os"
	"strings"
	"syscall"
	"unsafe"
)

// dirCache is the directory a FileSlab's last file was opened in, held
// open so that the next file there is opened by its name alone: openat(2)
// against the directory's descriptor, the name copied into a buffer the
// cache owns. open(2) on the whole path costs a fresh NUL-terminated copy
// of the path per file, and a lookup of every directory on it.
type dirCache struct {
	path string // the open directory with its trailing '/', "" for none
	fd   int
	name [256]byte // one name and its NUL: NAME_MAX is 255
}

// open opens the file at path read-only on a raw descriptor, as openFD
// does. A path without a directory or a name, or with a name no buffer
// of NAME_MAX holds, and a directory that cannot be opened for reading,
// go to openFD, so its error is the one the caller sees.
func (c *dirCache) open(path string) (int, error) {
	i := strings.LastIndexByte(path, '/')
	dir, name := path[:i+1], path[i+1:]
	if dir == "" || name == "" || len(name) >= len(c.name) || strings.IndexByte(name, 0) >= 0 {
		return openFD(path)
	}
	if dir != c.path {
		c.close()
		fd, err := openFD(dir)
		if err != nil {
			return openFD(path)
		}
		c.path, c.fd = dir, fd
	}
	c.name[copy(c.name[:], name)] = 0
	var fd int
	err := ignoringEINTR(func() error {
		r, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(c.fd), uintptr(unsafe.Pointer(&c.name[0])),
			syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
		if errno != 0 {
			return errno
		}
		fd = int(r)
		return nil
	})
	if err != nil {
		return -1, &os.PathError{Op: "open", Path: path, Err: err}
	}
	return fd, nil
}

// close releases the open directory, if any.
func (c *dirCache) close() {
	if c.path != "" {
		syscall.Close(c.fd)
		c.path = ""
	}
}
