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
	"sort"
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

// File is a named, sized blob with optional lazily-materialised content.
// Pack-backed files additionally carry locality — which shard container
// holds their bytes and at what offset — so scans can order reads
// sequentially on disk.
type File struct {
	Name    string
	Size    int64
	content Opener

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
}

// NewFile creates a metadata-only file (no content source).
func NewFile(name string, size int64) File {
	return File{Name: name, Size: size}
}

// NewContentFile creates a file whose bytes come from open. The declared
// size must match the content length; ReadAll validates this.
func NewContentFile(name string, size int64, open Opener) File {
	return File{Name: name, Size: size, content: open}
}

// BytesFile creates a file backed by an in-memory byte slice. The slice is
// not copied; callers must not mutate it afterwards.
func BytesFile(name string, data []byte) File {
	return File{
		Name:    name,
		Size:    int64(len(data)),
		content: func() (io.Reader, error) { return bytes.NewReader(data), nil },
	}
}

// WithLocality returns a copy of the file annotated with its physical
// location: the shard container path holding its bytes and the offset
// within it. ImportPack sets this so SequentialOrder can walk each pack
// front to back.
func (f File) WithLocality(shard string, offset int64) File {
	f.shard = shard
	f.shardOff = offset
	return f
}

// Locality returns the file's shard container path and byte offset
// within it; shard is "" for files that are not pack-backed.
func (f File) Locality() (shard string, offset int64) { return f.shard, f.shardOff }

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

// Bytes returns the file's zero-copy content view. It implements
// scan.BytesSource for raw-backed files; calling it on a file without a
// raw view is an error (scans route those through Open instead).
func (f *File) Bytes() ([]byte, error) {
	if !f.hasRaw {
		return nil, fmt.Errorf("vfs: file %q has no raw content view", f.Name)
	}
	return f.raw, nil
}

// HasContent reports whether the file carries a content source.
func (f File) HasContent() bool { return f.content != nil }

// Open returns a new reader over the file's content. It returns an error
// for metadata-only files, and the content source's own error — wrapped
// with the file name — when the source cannot be opened.
func (f File) Open() (io.Reader, error) {
	if f.content == nil {
		return nil, fmt.Errorf("vfs: file %q is metadata-only", f.Name)
	}
	r, err := f.content()
	if err != nil {
		return nil, fmt.Errorf("vfs: open %q: %w", f.Name, err)
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
	// ones. A non-EOF error here is the source's own verdict (verified
	// pack readers report checksum mismatches on the drain read) and
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
		f.content = func() (io.Reader, error) { return &concatReader{members: captured}, nil }
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

// FS is an ordered collection of Files keyed by name.
type FS struct {
	files map[string]File
	order []string // insertion order; List sorts lazily
	dirty bool     // order needs re-sorting before deterministic listing
	total int64

	// Sorted snapshots, built on first List/Sizes call and served until the
	// next mutation. Pack/plan/probe layers call List and Sizes in tight
	// loops over an immutable corpus; rebuilding an n-entry slice per call
	// was pure allocation churn.
	listCache  []File
	sizesCache []int64
}

// invalidate drops the cached listings after a mutation.
func (fs *FS) invalidate() {
	fs.listCache = nil
	fs.sizesCache = nil
}

// NewFS returns an empty file system.
func NewFS() *FS { return newFS(0) }

// newFS returns an empty file system with room for n files, for an import
// that knows its count before its first Add: the map and the order slice
// are allocated once instead of grown under the adds.
func newFS(n int) *FS {
	return &FS{files: make(map[string]File, n), order: make([]string, 0, n)}
}

// Add inserts a file, rejecting duplicates and negative sizes.
func (fs *FS) Add(f File) error {
	if f.Name == "" {
		return fmt.Errorf("vfs: empty file name")
	}
	if f.Size < 0 {
		return fmt.Errorf("vfs: file %q has negative size %d", f.Name, f.Size)
	}
	if _, exists := fs.files[f.Name]; exists {
		return fmt.Errorf("vfs: file %q already exists", f.Name)
	}
	fs.files[f.Name] = f
	fs.order = append(fs.order, f.Name)
	fs.dirty = true
	fs.total += f.Size
	fs.invalidate()
	return nil
}

// Get looks up a file by name.
func (fs *FS) Get(name string) (File, error) {
	f, ok := fs.files[name]
	if !ok {
		return File{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return f, nil
}

// Len returns the number of files.
func (fs *FS) Len() int { return len(fs.files) }

// TotalSize returns the summed size of all files.
func (fs *FS) TotalSize() int64 { return fs.total }

// List returns all files sorted by name, for deterministic iteration. The
// returned slice is a cached snapshot shared between calls; callers must
// not modify it.
func (fs *FS) List() []File {
	if fs.listCache != nil {
		return fs.listCache
	}
	if fs.dirty {
		sort.Strings(fs.order)
		fs.dirty = false
	}
	out := make([]File, 0, len(fs.order))
	for _, name := range fs.order {
		out = append(out, fs.files[name])
	}
	fs.listCache = out
	return out
}

// Sizes returns the sizes of all files in List order. Like List, the slice
// is cached until the next mutation and must not be modified.
func (fs *FS) Sizes() []int64 {
	if fs.sizesCache != nil {
		return fs.sizesCache
	}
	files := fs.List()
	sizes := make([]int64, len(files))
	for i, f := range files {
		sizes[i] = f.Size
	}
	fs.sizesCache = sizes
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

// ImportDir loads every regular file under dir on the real file system into
// a new FS, with names relative to dir (slash-separated). Only metadata is
// read: each file is opened when a reader asks for its content, through
// packstore.OpenFile — a raw descriptor that only the reader's Close
// releases, which is what makes the delivery contract's "whoever calls
// Open closes" mandatory here. The walk lists the corpus; the one lstat a
// file gets (the walk's directory entries carry none) runs in chunks on
// every core, and the files are added in walk order, so the FS — and the
// error, if a file vanished in between — is the serial walk's.
func ImportDir(dir string) (*FS, error) {
	entries, err := walkFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("vfs: import %s: %w", dir, err)
	}
	fs, err := statFiles(entries)
	if err != nil {
		return nil, fmt.Errorf("vfs: import %s: %w", dir, err)
	}
	return fs, nil
}

// statFiles is ImportDir after its walk: lstat every listed file, chunk by
// chunk on the pool as ImportDirMappedCtx loads its chunks, then add them
// in walk order. The error is the first in walk order, and no FS is
// returned beside it.
func statFiles(entries []dirEntry) (*FS, error) {
	sizes := make([]int64, len(entries))
	// ImportDir's signature is the harness's and carries no context; a stat
	// is not worth cancelling.
	err := forEachImportChunk(context.Background(), len(entries), func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			size, err := packstore.LstatSize(entries[i].path)
			if err != nil {
				return err
			}
			sizes[i] = size
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fs := newFS(len(entries))
	for i, e := range entries {
		path := e.path
		open := func() (io.Reader, error) { return packstore.OpenFile(path) }
		if err := fs.Add(NewContentFile(e.name, sizes[i], open)); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// dirEntry is one regular file the walk found: its corpus name and its
// path on disk.
type dirEntry struct{ name, path string }

// walkFiles is the one directory walk: it lists every non-directory entry
// under dir by its name relative to dir (slash-separated) and its path on
// disk — for the two directory imports to stat or load in parallel. It
// walks as filepath.WalkDir does — depth-first, each directory in lexical
// order, symlinks listed and not followed, an unreadable directory an
// error — but builds each name and path by appending the entry to its
// directory's, as it descends, instead of recovering the name from the
// path with filepath.Rel per entry.
func walkFiles(dir string) ([]dirEntry, error) {
	var entries []dirEntry
	var walk func(path, prefix string) error
	walk = func(path, prefix string) error {
		list, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, d := range list {
			name, sub := prefix+d.Name(), path+d.Name()
			if !d.IsDir() {
				entries = append(entries, dirEntry{name, sub})
			} else if err := walk(sub+string(filepath.Separator), name+"/"); err != nil {
				return err
			}
		}
		return nil
	}
	if dir != "" && !os.IsPathSeparator(dir[len(dir)-1]) {
		dir += string(filepath.Separator)
	}
	return entries, walk(dir, "")
}
