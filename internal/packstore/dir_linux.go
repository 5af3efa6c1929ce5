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
// of the path per file, and a lookup of every directory on it. The
// directory is keyed by the root a file was named under and the name's
// directory part, so no path is joined to find it.
type dirCache struct {
	root, sub string // the open directory is root+sub; both "" for none
	fd        int
	name      [256]byte // one name and its NUL: NAME_MAX is 255
}

// open opens the file root+name read-only on a raw descriptor, as
// openJoined does. A name without a base, a path without a directory, a
// base no buffer of NAME_MAX holds, and a directory that cannot be opened
// for reading go to openJoined, so its error is the one the caller sees.
func (c *dirCache) open(root, name string) (int, error) {
	i := strings.LastIndexByte(name, '/')
	sub, base := name[:i+1], name[i+1:]
	if len(root)+len(sub) == 0 || base == "" || len(base) >= len(c.name) || strings.IndexByte(base, 0) >= 0 {
		return openJoined(root, name)
	}
	if root != c.root || sub != c.sub { // an empty cache matches no root+sub but ""
		c.close()
		fd, err := openJoined(root, sub)
		if err != nil {
			return openJoined(root, name)
		}
		c.root, c.sub, c.fd = root, sub, fd
	}
	c.name[copy(c.name[:], base)] = 0
	fd, err := openat(uintptr(c.fd), &c.name[0])
	if err != nil {
		return -1, &os.PathError{Op: "open", Path: root + name, Err: err}
	}
	return fd, nil
}

// close releases the open directory, if any.
func (c *dirCache) close() {
	if len(c.root)+len(c.sub) > 0 {
		syscall.Close(c.fd)
		c.root, c.sub = "", ""
	}
}

// These system calls take their path NUL-terminated from a stack buffer,
// where the syscall package's string forms copy it to the heap: one
// allocation per open and per lstat of an import's every file.
const (
	atFDCWD           = ^uintptr(99) // AT_FDCWD, -100: paths resolve as in open(2)
	atSymlinkNoFollow = 0x100        // makes fstatat an lstat
	pathMax           = 4096         // PATH_MAX, with the NUL
)

// joinNUL writes dir+name and a NUL into buf, and reports whether they
// fit and held no NUL of their own; a path that does not goes to the
// syscall package, whose error the caller then sees.
func joinNUL(buf *[pathMax]byte, dir, name string) bool {
	n := len(dir) + len(name)
	if n >= len(buf) || strings.IndexByte(dir, 0) >= 0 || strings.IndexByte(name, 0) >= 0 {
		return false
	}
	copy(buf[copy(buf[:], dir):], name)
	buf[n] = 0
	return true
}

// openJoined opens dir+name read-only on a raw descriptor, as openFD
// opens a path.
func openJoined(dir, name string) (int, error) {
	var buf [pathMax]byte
	if !joinNUL(&buf, dir, name) {
		return openFD(dir + name)
	}
	fd, err := openat(atFDCWD, &buf[0])
	if err != nil {
		return -1, &os.PathError{Op: "open", Path: dir + name, Err: err}
	}
	return fd, nil
}

// openat opens the NUL-terminated path at p, relative to the directory
// dirfd, read-only on a raw descriptor.
func openat(dirfd uintptr, p *byte) (int, error) {
	var fd int
	err := ignoringEINTR(func() error {
		r, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, dirfd, uintptr(unsafe.Pointer(p)),
			syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
		if errno != 0 {
			return errno
		}
		fd = int(r)
		return nil
	})
	return fd, err
}

// lstat is syscall.Lstat of dir+name through fstatat, where the
// architecture's fstatat fills syscall.Stat_t as it is (fstatatTrap is
// not 0).
func lstat(dir, name string, st *syscall.Stat_t) error {
	var buf [pathMax]byte
	if fstatatTrap == 0 || !joinNUL(&buf, dir, name) {
		return syscall.Lstat(dir+name, st)
	}
	_, _, errno := syscall.Syscall6(fstatatTrap, atFDCWD, uintptr(unsafe.Pointer(&buf[0])),
		uintptr(unsafe.Pointer(st)), atSymlinkNoFollow, 0, 0)
	if errno != 0 {
		return errno
	}
	return nil
}
