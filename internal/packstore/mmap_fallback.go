//go:build (!linux && !darwin) || packstore_nommap

package packstore

import (
	"io"
	"os"
)

const mmapSupported = false

// mapFile is the portable fallback: the shard is materialised once on
// the heap through ReaderAt. MemberBytes views are subslices of that one
// buffer, so the zero-copy member contract (and the differential tests
// pinning it to the mmap path) hold identically — the fallback pays one
// up-front copy of the shard instead of none, never one per member.
func mapFile(f *os.File, size int64) ([]byte, bool, error) {
	if size == 0 {
		return nil, false, nil
	}
	data, err := readFileAt(f, size)
	return data, false, err
}

// unmapFile is a no-op: heap buffers are garbage-collected.
func unmapFile([]byte) error { return nil }

// loadFile is LoadFile through *os.File: the same open, stat, read to
// EOF, close sequence and the same slab, without the raw descriptor
// calls only unix has. Large files take mapFile's heap fallback.
func loadFile(path string, slab *FileSlab) ([]byte, *FileMapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if !info.Mode().IsRegular() {
		return nil, nil, errNotRegular(path)
	}
	if info.Size() > SmallFileLimit {
		m, err := mapOpened(f, path, info.Size())
		if err != nil {
			return nil, nil, err
		}
		return m.data, m, nil
	}
	data, err := slab.read(f, info.Size(), path)
	return data, nil, err
}

// openFile is OpenFile through *os.File, which is what the platform has.
func openFile(path string) (io.ReadCloser, error) {
	return os.Open(path)
}

// lstatSize is LstatSize through os.Lstat.
func lstatSize(path string) (int64, error) {
	info, err := os.Lstat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
