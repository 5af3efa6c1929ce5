//go:build linux && !packstore_nommap

package vfs

import (
	"bytes"
	"encoding/binary"
	"os"
	"syscall"
	"unsafe"
)

// walkFiles reads each directory with getdents64 and takes every entry's
// type from its d_type, so listing a file allocates nothing of its own:
// os.ReadDir would allocate a DirEntry and a name string per entry, and
// the walk two more strings for the name and path built from them. Its
// path is appended to an arena of 64 KiB blocks that are only ever
// appended to, and its entry's path and name are substrings of it, so a
// chunk can go to the loaders while the directory is still being read;
// entries come in the order getdents64 returns them, and subdirectories
// are walked after the directory that lists them. A filesystem that
// reports DT_UNKNOWN gets an lstat for that entry, as os.ReadDir does; a
// symlink (DT_LNK) is listed, never followed.
func walkFiles(dir string, emit func([]dirEntry) error) error {
	if dir != "" && dir[len(dir)-1] != '/' {
		dir += "/"
	}
	w := dirWalker{root: len(dir), buf: make([]byte, 32<<10), emit: emit}
	for dirs := []string{dir}; len(dirs) > 0; {
		path := dirs[len(dirs)-1]
		dirs = dirs[:len(dirs)-1]
		if err := w.read(path, &dirs); err != nil {
			return err
		}
	}
	if len(w.chunk) == 0 {
		return nil
	}
	return emit(w.chunk)
}

// dirWalker is one walk's state.
type dirWalker struct {
	root  int        // the length of the walked root's path, with its '/'
	buf   []byte     // getdents64 records
	arena []byte     // the current block of listed paths
	chunk []dirEntry // the entries listed since the last emit
	emit  func([]dirEntry) error
}

// The layout of a linux_dirent64 record up to its NUL-terminated name.
const (
	direntReclen = 16 // d_reclen, uint16, after d_ino and d_off
	direntType   = 18 // d_type, uint8
	direntName   = 19 // d_name
)

// read lists the directory at dir (with a trailing '/'): each file to the
// chunk, each subdirectory onto dirs. "." and ".." and deleted entries
// (inode 0) are left out.
func (w *dirWalker) read(dir string, dirs *[]string) error {
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
			if typ == syscall.DT_UNKNOWN {
				var st syscall.Stat_t
				path := dir + string(name)
				if err := syscall.Lstat(path, &st); err == syscall.ENOENT {
					continue // gone since it was read, as os.ReadDir skips it
				} else if err != nil {
					return &os.PathError{Op: "lstat", Path: path, Err: err}
				}
				if st.Mode&syscall.S_IFMT == syscall.S_IFDIR {
					typ = syscall.DT_DIR
				}
			}
			if typ == syscall.DT_DIR {
				*dirs = append(*dirs, dir+string(name)+"/")
			} else if err := w.add(dir, name); err != nil {
				return err
			}
		}
	}
}

// add lists the file dir+name, and emits the chunk once it is full.
func (w *dirWalker) add(dir string, name []byte) error {
	n := len(dir) + len(name)
	if cap(w.arena)-len(w.arena) < n {
		w.arena = make([]byte, 0, max(64<<10, n))
	}
	start := len(w.arena)
	w.arena = append(append(w.arena, dir...), name...)
	// Bytes once appended are never written again, so they can be the
	// entry's strings without a copy.
	path := unsafe.String(&w.arena[start], n)
	if w.chunk == nil {
		w.chunk = make([]dirEntry, 0, importChunkFiles)
	}
	w.chunk = append(w.chunk, dirEntry{name: path[w.root:], path: path})
	if len(w.chunk) < importChunkFiles {
		return nil
	}
	chunk := w.chunk
	w.chunk = nil
	return w.emit(chunk)
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
