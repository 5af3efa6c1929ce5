// Package vfs provides a lightweight virtual file system used to model
// corpora of millions of small files without holding their bytes in memory.
//
// A File is (name, size, content source). The content source is optional:
// the packing and provisioning layers consume only metadata, while the real
// text-processing kernels (grep, POS tagging) open files and stream bytes
// that are materialised deterministically on demand. Concatenation — the
// paper's reshaping operation — is a zero-copy view over member files, so a
// merged unit file always contains exactly the bytes of its members in
// order.
//
// Delivery contract (DESIGN.md §7): an Opener returns a fresh reader or an
// error, never a reader that fails later in the error's place; whoever
// calls Open closes the reader if it is an io.Closer; a raw view, where a
// file has one, is valid until the closer of the import that made it runs.
package vfs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/par"
)

// Opener produces a fresh reader over a file's content, or the reason it
// cannot. Implementations must return independent readers on each call so
// files can be read concurrently and repeatedly. A reader that holds a
// resource implements io.Closer; whoever called Open closes it.
type Opener func() (io.Reader, error)

func (o Opener) open(*File) (io.Reader, error) { return o() }

// source is where a File's content comes from: an Opener, or an import
// that serves each of its files from the file's raw view, so that no
// file needs a closure of its own.
type source interface {
	open(f *File) (io.Reader, error)
}

// File is a named, sized blob with optional lazily-materialised content.
// Pack-backed files additionally carry locality — which shard container
// holds their bytes and at what offset — so scans can order reads
// sequentially on disk, and the checksum their pack stores, which every
// read of them is held to.
type File struct {
	Name    string
	Size    int64
	content source

	shard    string // container (pack shard) path, "" for standalone files
	shardOff int64  // byte offset of the content within the container

	// raw, when hasRaw, is the file's complete content as a borrowed view —
	// typically a window into a memory-mapped pack shard. Scans use it for
	// the zero-copy path; the view is only valid while its owner (the pack
	// reader) stays open. Deliberately separate from BytesFile content: a
	// file having in-memory bytes is not the same as a file whose owner
	// guarantees them stable for a whole scan.
	raw    []byte
	hasRaw bool

	// sum, when hasSum, is the CRC-32C its pack's index stores for the
	// file's bytes, which every read is held to. It sits in the padding
	// after hasRaw, so a File stays 96 bytes.
	hasSum bool
	sum    uint32
}

// NewFile creates a metadata-only file (no content source).
func NewFile(name string, size int64) File {
	return File{Name: name, Size: size}
}

// NewContentFile creates a file whose bytes come from open. The declared
// size must match the content length; ReadAll validates this.
func NewContentFile(name string, size int64, open Opener) File {
	f := File{Name: name, Size: size}
	if open != nil {
		f.content = open
	}
	return f
}

// BytesFile creates a file backed by an in-memory byte slice. The slice is
// not copied; callers must not mutate it afterwards.
func BytesFile(name string, data []byte) File {
	return File{
		Name:    name,
		Size:    int64(len(data)),
		content: Opener(func() (io.Reader, error) { return bytes.NewReader(data), nil }),
	}
}

// WithRawBytes returns a copy of the file annotated with a borrowed
// zero-copy view of its complete content. data must hold exactly Size
// bytes and must stay valid and immutable for as long as the file is
// scanned — ImportPackMappedCtx sets this to a window of the shard mapping,
// valid until the import's closer runs. Scans given a raw view skip the
// streaming Open path entirely.
func (f File) WithRawBytes(data []byte) File {
	f.raw = data
	f.hasRaw = true
	return f
}

// WithStream returns a copy of the file whose reads pass through wrap:
// each Open opens the file's own content and hands it to wrap with the
// file's name and size. Name, size, locality and stored sum are kept, so
// a stored sum is checked above wrap; the raw view is dropped, so no scan
// goes around it. A metadata-only file is returned as it is.
func (f File) WithStream(wrap func(name string, size int64, r io.Reader) io.Reader) File {
	if f.content == nil {
		return f
	}
	base := f
	f.content = Opener(func() (io.Reader, error) {
		r, err := base.content.open(&base)
		if err != nil {
			return nil, err
		}
		return wrap(base.Name, base.Size, r), nil
	})
	f.raw, f.hasRaw = nil, false
	return f
}

// Bytes returns the file's zero-copy content view. It implements
// scan.BytesSource for raw-backed files; calling it on a file without a
// raw view is an error (scans route those through Open instead). A
// mapped pack member's view is first held to its stored sum, and refused
// once its import has been closed.
func (f *File) Bytes() ([]byte, error) {
	if !f.hasRaw {
		return nil, fmt.Errorf("vfs: file %q has no raw content view", f.Name)
	}
	if s, ok := f.content.(*packSource); ok && s.r != nil {
		if err := s.checkRaw(f); err != nil {
			return nil, err
		}
	}
	return f.raw, nil
}

// HasContent reports whether the file carries a content source.
func (f File) HasContent() bool { return f.content != nil }

// Open returns a new reader over the file's content. It returns an error
// for metadata-only files, and the content source's own error — wrapped
// with the file name — when the source cannot be opened. A pack member's
// stream fails with ErrCorrupt if its bytes do not match its stored sum.
func (f File) Open() (io.Reader, error) {
	if f.content == nil {
		return nil, fmt.Errorf("vfs: file %q is metadata-only", f.Name)
	}
	r, err := f.content.open(&f)
	if err != nil {
		return nil, fmt.Errorf("vfs: open %q: %w", f.Name, err)
	}
	if f.hasSum {
		r = &verifyReader{r: r, name: f.Name, size: f.Size, want: f.sum}
	}
	return r, nil
}

// ReadAll materialises the full content of the file and validates that its
// length matches the declared size. The size is known up front, so the
// buffer is allocated once at exactly that size and filled with ReadFull —
// no io.ReadAll growth-and-copy doubling, which matters when concatenated
// unit files run to hundreds of megabytes.
func (f File) ReadAll() ([]byte, error) {
	return f.ReadInto(nil)
}

// closeReader closes r when it holds an OS resource, keeping err if one is
// already set. For an ImportDir file this is the only release its raw
// descriptor gets (packstore.OpenFile: no finalizer stands behind it), so
// every path that opens a File ends here. Content sources that are plain
// in-memory readers are unaffected.
func closeReader(r io.Reader, err error) error {
	if c, ok := r.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && err == nil {
			return cerr
		}
	}
	return err
}

// ReadInto is ReadAll with buffer reuse: when cap(buf) >= f.Size the content
// is read into buf's backing array and no allocation happens. The returned
// slice always has length f.Size and is only valid until the buffer's next
// reuse. Pass nil to allocate fresh. The reader is closed after draining
// when the content source hands out closable readers (real files), so
// reading at manifest scale does not exhaust descriptors.
func (f File) ReadInto(buf []byte) ([]byte, error) {
	r, err := f.Open()
	if err != nil {
		return nil, err
	}
	data, err := readFull(f, r, buf)
	if err := closeReader(r, err); err != nil {
		return nil, err
	}
	return data, nil
}

func readFull(f File, r io.Reader, buf []byte) ([]byte, error) {
	if int64(cap(buf)) >= f.Size {
		buf = buf[:f.Size]
	} else {
		buf = make([]byte, f.Size)
	}
	n, err := io.ReadFull(r, buf)
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		return nil, fmt.Errorf("vfs: file %q declared %d bytes but content has %d", f.Name, f.Size, n)
	}
	if err != nil {
		return nil, fmt.Errorf("vfs: reading %q: %w", f.Name, err)
	}
	// The source must be exhausted: extra bytes are as corrupt as missing
	// ones. A non-EOF error here is the source's own verdict (a pack
	// member's stream reports a checksum mismatch on the drain read) and
	// outranks the byte count.
	var probe [1]byte
	if m, perr := r.Read(probe[:]); m > 0 {
		return nil, fmt.Errorf("vfs: file %q declared %d bytes but content has %d", f.Name, f.Size, n+m)
	} else if perr != nil && perr != io.EOF {
		return nil, fmt.Errorf("vfs: reading %q: %w", f.Name, perr)
	}
	return buf, nil
}

// Concat builds a single merged file whose content is the concatenation of
// the members' contents in order — the reshaped "unit file" of the paper.
// The members are captured by value; later mutation of the input slice does
// not affect the merged file. Metadata-only members produce a metadata-only
// merged file.
func Concat(name string, members []File) File {
	f := File{Name: name}
	allContent := len(members) > 0
	captured := append([]File(nil), members...)
	for _, m := range captured {
		f.Size += m.Size
		if !m.HasContent() {
			allContent = false
		}
	}
	if allContent {
		f.content = Opener(func() (io.Reader, error) { return &concatReader{members: captured}, nil })
	}
	return f
}

// concatReader is the merged stream handed out by Concat. It walks the
// members itself: open member i on the first Read that needs it, drain
// it, close it, advance — so a merged unit of thousands of disk-backed
// members holds at most one descriptor at a time. It implements io.Closer
// so consumers that stop mid-stream release the member that is open.
type concatReader struct {
	members []File    // read-only: shared by every reader of the merged file
	next    int       // index of the next member to open
	cur     io.Reader // the open member, nil between members
}

func (c *concatReader) Read(p []byte) (int, error) {
	for c.cur != nil || c.next < len(c.members) {
		if c.cur == nil {
			r, err := c.members[c.next].Open()
			if err != nil {
				return 0, err
			}
			c.cur = r
			c.next++
		}
		n, err := c.cur.Read(p)
		if err == io.EOF {
			// Bytes that came with the EOF are delivered first; the next
			// call moves on to the next member.
			if err = c.Close(); err == nil && n == 0 {
				continue
			}
		}
		return n, err
	}
	return 0, io.EOF
}

// Close releases the member open mid-stream, if any; the stream can be
// read on from the next member, which is how Read advances.
func (c *concatReader) Close() error {
	err := closeReader(c.cur, nil)
	c.cur = nil
	return err
}

// ErrNotFound is returned by FS lookups for unknown names. It wraps
// errs.ErrNotFound, so callers can branch on either sentinel with
// errors.Is.
var ErrNotFound = fmt.Errorf("vfs: file not found: %w", errs.ErrNotFound)

// FS is a collection of Files in name order, kept as one slice that List
// hands out as it is. A file that sorts after every other, as every
// import's and most generators' next file does, is appended; one added
// out of order waits past the sorted files, in a tail that Get searches
// through an index and the next List sorts and merges in, so an FS built
// in any order costs O(n log n). A slice List returned is never written
// again: appends land past its end and the merge makes a new slice. Reads
// may run concurrently, but a List after an out-of-order Add writes the
// FS, so it must not run beside another call.
type FS struct {
	files  []File         // files[:sorted] in name order; the rest is the tail
	sorted int            // how many of files are in name order
	tail   map[string]int // each tail file's index in files
	total  int64
}

// NewFS returns an empty file system.
func NewFS() *FS { return &FS{} }

// newFS returns the file system of files, which it takes over. A slice
// already in name order costs one pass; any other is sorted once and
// checked for a name listed twice. It refuses what Add refuses.
func newFS(files []File) (*FS, error) {
	fs := &FS{files: files, sorted: len(files)}
	sorted := true
	for i, f := range files {
		if err := checkFile(f); err != nil {
			return nil, err
		}
		fs.total += f.Size
		sorted = sorted && (i == 0 || files[i-1].Name < f.Name)
	}
	if !sorted {
		slices.SortFunc(files, byFileName)
		for i := 1; i < len(files); i++ {
			if files[i].Name == files[i-1].Name {
				return nil, fmt.Errorf("vfs: file %q already exists", files[i].Name)
			}
		}
	}
	return fs, nil
}

func byFileName(a, b File) int { return strings.Compare(a.Name, b.Name) }

// checkFile refuses a file no FS holds: no name, or a negative size.
func checkFile(f File) error {
	if f.Name == "" {
		return fmt.Errorf("vfs: empty file name")
	}
	if f.Size < 0 {
		return fmt.Errorf("vfs: file %q has negative size %d", f.Name, f.Size)
	}
	return nil
}

// find returns where name is in fs.files.
func (fs *FS) find(name string) (int, bool) {
	i, found := slices.BinarySearchFunc(fs.files[:fs.sorted], name, func(f File, name string) int { return strings.Compare(f.Name, name) })
	if !found {
		i, found = fs.tail[name]
	}
	return i, found
}

// Add inserts a file, rejecting duplicates and negative sizes. A file
// whose name sorts after every other is appended to the sorted files; any
// other joins the tail that the next List merges in.
func (fs *FS) Add(f File) error {
	if err := checkFile(f); err != nil {
		return err
	}
	if n := len(fs.files); fs.sorted == n && (n == 0 || fs.files[n-1].Name < f.Name) {
		fs.sorted++
	} else if _, found := fs.find(f.Name); found {
		return fmt.Errorf("vfs: file %q already exists", f.Name)
	} else {
		if fs.tail == nil {
			fs.tail = make(map[string]int)
		}
		fs.tail[f.Name] = n
	}
	fs.files = append(fs.files, f)
	fs.total += f.Size
	return nil
}

// Get looks up a file by name.
func (fs *FS) Get(name string) (File, error) {
	i, found := fs.find(name)
	if !found {
		return File{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return fs.files[i], nil
}

// Len returns the number of files.
func (fs *FS) Len() int { return len(fs.files) }

// TotalSize returns the summed size of all files.
func (fs *FS) TotalSize() int64 { return fs.total }

// List returns all files sorted by name, for deterministic iteration: the
// FS's own slice, shared between calls and never written again, so
// callers must not modify it (its capacity ends at its length, so an
// append copies). Files added out of order are merged in first, into a
// new slice.
func (fs *FS) List() []File {
	if fs.sorted < len(fs.files) {
		tail := fs.files[fs.sorted:]
		slices.SortFunc(tail, byFileName)
		head := fs.files[:fs.sorted]
		merged := make([]File, 0, len(fs.files))
		for len(head) > 0 && len(tail) > 0 {
			if head[0].Name < tail[0].Name {
				merged, head = append(merged, head[0]), head[1:]
			} else {
				merged, tail = append(merged, tail[0]), tail[1:]
			}
		}
		merged = append(append(merged, head...), tail...)
		fs.files, fs.sorted, fs.tail = merged, len(merged), nil
	}
	return slices.Clip(fs.files)
}

// Sizes returns the sizes of all files in List order, in a new slice.
func (fs *FS) Sizes() []int64 {
	files := fs.List()
	sizes := make([]int64, len(files))
	for i, f := range files {
		sizes[i] = f.Size
	}
	return sizes
}

// ExportCtx writes every content-backed file under dir on the real file
// system, creating parent directories as needed. Metadata-only files cause
// an error: exporting would silently lose data otherwise. Files are
// materialised and written concurrently (content sources are independent by
// the Opener contract); on failure the reported error is the one from the
// first file in List order, matching the serial behaviour. No new files
// are written once ctx is done (files already being written complete),
// and the call returns a typed cancellation error.
func (fs *FS) ExportCtx(ctx context.Context, dir string) error {
	files := fs.List()
	return par.Default().ForEachCtx(ctx, len(files), func(i int) error {
		f := files[i]
		path, err := exportPath(dir, f.Name)
		if err != nil {
			return err
		}
		data, err := f.ReadAll()
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("vfs: export: %w", err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("vfs: export: %w", err)
		}
		return nil
	})
}

// exportPath joins a slash-separated file name onto the output directory,
// rejecting names that would escape it (absolute paths or ".." traversal).
// Corpus names come from ImportDir, generators or pack indexes; a crafted
// name like "../x" must fail loudly instead of writing outside dir.
func exportPath(dir, name string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(name))
	sep := string(filepath.Separator)
	if filepath.IsAbs(clean) || clean == ".." || strings.HasPrefix(clean, ".."+sep) {
		return "", fmt.Errorf("vfs: export: file name %q escapes output directory", name)
	}
	return filepath.Join(dir, clean), nil
}

// ImportDir is ImportDirCtx without a context.
func ImportDir(dir string) (*FS, error) { return ImportDirCtx(context.Background(), dir) }

// ImportDirCtx loads every regular file under dir on the real file system
// into a new FS, with names relative to dir (slash-separated). Only
// metadata is read: each file is opened when a reader asks for its
// content, through packstore.OpenFile — a raw descriptor that only the
// reader's Close releases, which is what makes the delivery contract's
// "whoever calls Open closes" mandatory here. The walk lists the corpus;
// the one lstat a file gets (the walk's directory entries carry none) runs
// on every core beside it (walkLoad), so the FS — and the error, if a file
// vanished in between — is the serial walk's. Once ctx is done the walk
// stops before its next chunk or stat, with errs.ErrCancelled.
func ImportDirCtx(ctx context.Context, dir string) (*FS, error) {
	entries, err := walkLoad(ctx, dir, func() func(*dirEntry) error { return statEntry })
	if err != nil {
		return nil, fmt.Errorf("vfs: import %s: %w", dir, err)
	}
	files := make([]File, len(entries))
	for i, e := range entries {
		path := e.path
		files[i] = NewContentFile(e.name, e.size, func() (io.Reader, error) { return packstore.OpenFile(path) })
	}
	return newFS(files)
}

// statEntry is ImportDir's load: the entry's size, from an lstat.
func statEntry(e *dirEntry) (err error) {
	e.size, err = packstore.LstatSize(e.path)
	return err
}
