//go:build (linux || darwin) && !packstore_nommap

package packstore

import (
	"io"
	"os"
	"syscall"
)

const mmapSupported = true

// mapFile maps size bytes of f read-only. When the mapping itself fails
// (filesystems without mmap support, 32-bit length overflow) it degrades
// to the heap-materialised fallback rather than failing the open — the
// caller learns which path it got from the mapped flag.
func mapFile(f *os.File, size int64) ([]byte, bool, error) {
	if size == 0 {
		return nil, false, nil
	}
	if int64(int(size)) != size {
		data, err := readFileAt(f, size)
		return data, false, err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		data, rerr := readFileAt(f, size)
		return data, false, rerr
	}
	return data, true, nil
}

// unmapFile releases a mapping produced by mapFile with mapped == true.
func unmapFile(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	return syscall.Munmap(data)
}

// openFD opens path read-only on a raw descriptor: no *os.File, no
// finalizer, no attempt to register a regular file with the poller. The
// caller closes it.
func openFD(path string) (int, error) {
	var fd int
	err := ignoringEINTR(func() (err error) {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		return err
	})
	if err != nil {
		return -1, &os.PathError{Op: "open", Path: path, Err: err}
	}
	return fd, nil
}

// loadFile is LoadFile over raw descriptors: the small-file route is
// exactly open, fstat, read to EOF, close — no FileInfo either — which
// keeps the per-file fixed cost of a many-small-files import down to the
// system calls it cannot avoid. Only a file large enough to map is
// wrapped in an *os.File, for mapFile.
func loadFile(path string, slab *FileSlab) ([]byte, *FileMapping, error) {
	fd, err := openFD(path)
	if err != nil {
		return nil, nil, err
	}
	var st syscall.Stat_t
	if err := ignoringEINTR(func() error { return syscall.Fstat(fd, &st) }); err != nil {
		syscall.Close(fd)
		return nil, nil, &os.PathError{Op: "stat", Path: path, Err: err}
	}
	if uint32(st.Mode)&syscall.S_IFMT != syscall.S_IFREG {
		syscall.Close(fd)
		return nil, nil, errNotRegular(path)
	}
	if st.Size > SmallFileLimit {
		f := os.NewFile(uintptr(fd), path)
		defer f.Close()
		m, err := mapOpened(f, path, st.Size)
		if err != nil {
			return nil, nil, err
		}
		return m.data, m, nil
	}
	data, err := slab.read(fdReader(fd), st.Size, path)
	syscall.Close(fd)
	return data, nil, err
}

// openFile is OpenFile over a raw descriptor: a sequential read of one
// member costs open, read, read-EOF, close and nothing else.
func openFile(path string) (io.ReadCloser, error) {
	fd, err := openFD(path)
	if err != nil {
		return nil, err
	}
	return &fdFile{fd: fd, path: path}, nil
}

// lstatSize is LstatSize over the system call itself.
func lstatSize(path string) (int64, error) {
	var st syscall.Stat_t
	if err := ignoringEINTR(func() error { return syscall.Lstat(path, &st) }); err != nil {
		return 0, &os.PathError{Op: "lstat", Path: path, Err: err}
	}
	return st.Size, nil
}

// fdFile owns a raw descriptor until Close. Nothing else will release it:
// there is no finalizer behind it.
type fdFile struct {
	fd   int // -1 once closed
	path string
}

func (f *fdFile) Read(p []byte) (int, error) {
	if f.fd < 0 {
		return 0, &os.PathError{Op: "read", Path: f.path, Err: os.ErrClosed}
	}
	n, err := fdReader(f.fd).Read(p)
	if err != nil && err != io.EOF {
		err = &os.PathError{Op: "read", Path: f.path, Err: err}
	}
	return n, err
}

// Close releases the descriptor. A second Close reports os.ErrClosed, as
// *os.File does, and never touches a descriptor number the process may
// have reused since.
func (f *fdFile) Close() error {
	if f.fd < 0 {
		return &os.PathError{Op: "close", Path: f.path, Err: os.ErrClosed}
	}
	fd := f.fd
	f.fd = -1
	if err := syscall.Close(fd); err != nil {
		return &os.PathError{Op: "close", Path: f.path, Err: err}
	}
	return nil
}

// fdReader is io.Reader over a raw descriptor.
type fdReader int

func (fd fdReader) Read(p []byte) (n int, err error) {
	err = ignoringEINTR(func() (err error) {
		n, err = syscall.Read(int(fd), p)
		return err
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// ignoringEINTR retries a system call interrupted by a signal, as the os
// package does around the same calls.
func ignoringEINTR(fn func() error) error {
	for {
		if err := fn(); err != syscall.EINTR {
			return err
		}
	}
}
