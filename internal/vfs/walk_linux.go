//go:build linux && !packstore_nommap

package vfs

import (
	"bytes"
	"encoding/binary"
	"os"
	"slices"
	"syscall"
	"unsafe"
)

// walkFiles reads each directory with getdents64 and takes every entry's
// type from its d_type, so listing a file allocates nothing: os.ReadDir
// would allocate a DirEntry and a name string per entry, and the walk
// two more strings for the name and path built from them. Every listed
// path goes into one arena, back to back; the entries' paths and names
// are substrings of it. A directory's entries are sorted as plain byte
// strings before the walk descends, which is os.ReadDir's order. A
// filesystem that reports DT_UNKNOWN gets an lstat for that entry, as
// os.ReadDir does; a symlink (DT_LNK) is listed, never followed.
func walkFiles(dir string) ([]dirEntry, error) {
	if dir != "" && dir[len(dir)-1] != '/' {
		dir += "/"
	}
	w := dirWalker{path: []byte(dir), buf: make([]byte, 32<<10)}
	if err := w.walk(); err != nil {
		return nil, err
	}
	if len(w.starts) == 0 {
		return nil, nil
	}
	// The arena is complete and never written again, so it can be the
	// entries' string without a copy.
	arena := unsafe.String(&w.arena[0], len(w.arena))
	entries := make([]dirEntry, len(w.starts))
	for i, start := range w.starts {
		end := len(arena)
		if i+1 < len(w.starts) {
			end = w.starts[i+1]
		}
		entries[i] = dirEntry{name: arena[start+len(dir) : end], path: arena[start:end]}
	}
	return entries, nil
}

// dirWalker is one walk's state. Its stacks hold the directories being
// walked, the current one last, so a subdirectory's entries are read,
// sorted and walked behind its parent's and dropped when it returns.
type dirWalker struct {
	path   []byte    // the current directory's path, with a trailing '/'
	buf    []byte    // getdents64 records
	names  []byte    // a stack of the walked directories' entry names
	ents   []dirName // a stack of those entries, indexes into names
	arena  []byte    // every listed path, back to back
	starts []int     // where each listed path starts in arena
}

// dirName is one directory entry read and not yet walked: its name,
// names[off:off+n] (NAME_MAX is 255), and its d_type.
type dirName struct {
	off    int
	n, typ uint8
}

// The layout of a linux_dirent64 record up to its NUL-terminated name.
const (
	direntReclen = 16 // d_reclen, uint16, after d_ino and d_off
	direntType   = 18 // d_type, uint8
	direntName   = 19 // d_name
)

// walk lists the directory at w.path: it reads and sorts its entries,
// then descends into each subdirectory in place and appends each other
// entry's path to the arena.
func (w *dirWalker) walk() error {
	base, nbase := len(w.ents), len(w.names)
	if err := w.read(); err != nil {
		return err
	}
	slices.SortFunc(w.ents[base:], func(a, b dirName) int {
		return bytes.Compare(w.names[a.off:a.off+int(a.n)], w.names[b.off:b.off+int(b.n)])
	})
	// Room for every entry to be a file, so the arena grows once per
	// directory rather than doubling its way up to a large one.
	dirLen, count := len(w.path), len(w.ents)-base
	w.arena = slices.Grow(w.arena, count*dirLen+len(w.names)-nbase)
	w.starts = slices.Grow(w.starts, count)
	for i := base; i < len(w.ents); i++ {
		e := w.ents[i]
		name := w.names[e.off : e.off+int(e.n)]
		isDir := e.typ == syscall.DT_DIR
		if e.typ == syscall.DT_UNKNOWN {
			var st syscall.Stat_t
			path := string(append(w.path, name...))
			if err := syscall.Lstat(path, &st); err == syscall.ENOENT {
				continue // gone since it was read, as os.ReadDir skips it
			} else if err != nil {
				return &os.PathError{Op: "lstat", Path: path, Err: err}
			}
			isDir = st.Mode&syscall.S_IFMT == syscall.S_IFDIR
		}
		if !isDir {
			w.starts = append(w.starts, len(w.arena))
			w.arena = append(append(w.arena, w.path...), name...)
			continue
		}
		w.path = append(append(w.path, name...), '/')
		err := w.walk()
		w.path = w.path[:dirLen]
		if err != nil {
			return err
		}
	}
	w.ents, w.names = w.ents[:base], w.names[:nbase]
	return nil
}

// read pushes the entries of the directory at w.path, "." and ".." and
// deleted entries (inode 0) left out, onto the stacks.
func (w *dirWalker) read() error {
	dir := string(w.path)
	fd, err := ignoringEINTR(func() (int, error) {
		return syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	})
	if err != nil {
		return &os.PathError{Op: "open", Path: dir, Err: err}
	}
	defer syscall.Close(fd)
	for {
		n, err := ignoringEINTR(func() (int, error) { return syscall.ReadDirent(fd, w.buf) })
		if err != nil {
			return &os.PathError{Op: "readdirent", Path: dir, Err: err}
		}
		if n <= 0 {
			return nil
		}
		for rec := w.buf[:n]; len(rec) >= direntName; {
			reclen := int(binary.NativeEndian.Uint16(rec[direntReclen:]))
			if reclen < direntName || reclen > len(rec) {
				return &os.PathError{Op: "readdirent", Path: dir, Err: syscall.EIO}
			}
			name := rec[direntName:reclen]
			if i := bytes.IndexByte(name, 0); i >= 0 {
				name = name[:i]
			}
			typ := rec[direntType]
			ino := binary.NativeEndian.Uint64(rec)
			rec = rec[reclen:]
			if ino == 0 || string(name) == "." || string(name) == ".." {
				continue
			}
			if len(name) > 255 {
				return &os.PathError{Op: "readdirent", Path: dir, Err: syscall.ENAMETOOLONG}
			}
			w.ents = append(w.ents, dirName{off: len(w.names), n: uint8(len(name)), typ: typ})
			w.names = append(w.names, name...)
		}
	}
}

// ignoringEINTR retries a system call interrupted by a signal, as the os
// package does around the same calls.
func ignoringEINTR(fn func() (int, error)) (int, error) {
	for {
		n, err := fn()
		if err != syscall.EINTR {
			return n, err
		}
	}
}
