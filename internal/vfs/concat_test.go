package vfs

import (
	"bytes"
	"hash/fnv"
	"io"
	"testing"
)

// trackingReader reports whether it has been closed; it stands in for a
// descriptor-holding member reader.
type trackingReader struct {
	r      io.Reader
	closed bool
}

func (tr *trackingReader) Read(p []byte) (int, error) { return tr.r.Read(p) }
func (tr *trackingReader) Close() error {
	tr.closed = true
	return nil
}

// trackedFile returns a content file whose most recently opened reader is
// observable through the returned pointer slot.
func trackedFile(name string, data []byte, slot **trackingReader) File {
	return NewContentFile(name, int64(len(data)), Opener(func() (io.Reader, error) {
		tr := &trackingReader{r: bytes.NewReader(data)}
		*slot = tr
		return tr, nil
	}))
}

func TestConcatReaderCloseMidStreamReleasesOpenMember(t *testing.T) {
	var first, second *trackingReader
	unit := Concat("unit", []File{
		trackedFile("a", []byte("aaaaaaaaaa"), &first),
		trackedFile("b", []byte("bbbbbbbbbb"), &second),
	})
	r, err := unit.Open()
	if err != nil {
		t.Fatal(err)
	}
	// Read into the first member only: it is open, the second untouched.
	buf := make([]byte, 4)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if first == nil || first.closed {
		t.Fatal("first member should be open mid-stream")
	}
	if second != nil {
		t.Fatal("second member should not have been opened yet")
	}
	c, ok := r.(io.Closer)
	if !ok {
		t.Fatal("concat reader must implement io.Closer")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !first.closed {
		t.Fatal("Close mid-stream did not release the currently open member")
	}
	if second != nil {
		t.Fatal("Close must not open unopened members")
	}
	// Closing twice is a no-op.
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConcatZeroLengthMembers(t *testing.T) {
	unit := Concat("unit", []File{
		BytesFile("empty-head", nil),
		BytesFile("a", []byte("abc")),
		BytesFile("empty-mid", []byte{}),
		BytesFile("b", []byte("def")),
		BytesFile("empty-tail", nil),
	})
	if unit.Size != 6 {
		t.Fatalf("concat size %d, want 6", unit.Size)
	}
	got, err := unit.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("concat content %q, want %q", got, "abcdef")
	}
	// The scan engine streams concat units too: one pass, exact size.
	sum1, err := checksumOracle(unit)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := checksumOracle(BytesFile("flat", []byte("abcdef")))
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 {
		t.Fatal("zero-length members changed the byte stream")
	}
}

// dribbleReader returns one byte per Read call — a member whose reader
// never fills the caller's buffer.
type dribbleReader struct {
	data []byte
	off  int
}

func (d *dribbleReader) Read(p []byte) (int, error) {
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	p[0] = d.data[d.off]
	d.off++
	return 1, nil
}

func TestConcatShortReadMembers(t *testing.T) {
	unit := Concat("unit", []File{
		NewContentFile("dribble", 5, Opener(func() (io.Reader, error) { return &dribbleReader{data: []byte("hello")}, nil })),
		BytesFile("tail", []byte(" world")),
	})
	got, err := unit.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("short-read concat %q, want %q", got, "hello world")
	}
	// The fused checksum path streams the same unit identically.
	sum, err := checksumOracle(unit)
	if err != nil {
		t.Fatal(err)
	}
	want, err := checksumOracle(BytesFile("flat", []byte("hello world")))
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Fatal("short reads changed the concat byte stream")
	}
}

// checksumOracle streams a file's content through the standard library's
// FNV-64a — the reference the engine's member checksum must equal.
func checksumOracle(f File) (uint64, error) {
	r, err := f.Open()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	_, err = io.Copy(h, r)
	if err := closeReader(r, err); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// concatHash is FNV-64a over the concatenation of the files in List
// order: the corpus's byte stream, whatever its file boundaries.
func concatHash(t *testing.T, fs *FS) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, f := range fs.List() {
		r, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(h, r)
		if err := closeReader(r, err); err != nil {
			t.Fatal(err)
		}
	}
	return h.Sum64()
}

func TestConcatHashReshapingInvariant(t *testing.T) {
	// The byte stream is identical whether the corpus is one file or many:
	// merging moves boundaries, never bytes.
	parts := NewFS()
	_ = parts.Add(BytesFile("a", []byte("abc")))
	_ = parts.Add(BytesFile("b", []byte("defg")))
	_ = parts.Add(BytesFile("c", []byte("hi")))

	merged := NewFS()
	_ = merged.Add(Concat("unit-0", []File{
		BytesFile("a", []byte("abc")),
		BytesFile("b", []byte("defg")),
		BytesFile("c", []byte("hi")),
	}))

	sumParts := concatHash(t, parts)
	if concatHash(t, merged) != sumParts {
		t.Error("reshaping changed the combined byte stream")
	}

	// But different bytes change it.
	other := NewFS()
	_ = other.Add(BytesFile("a", []byte("abX")))
	_ = other.Add(BytesFile("b", []byte("defg")))
	_ = other.Add(BytesFile("c", []byte("hi")))
	if concatHash(t, other) == sumParts {
		t.Error("different corpus, same combined checksum")
	}
}
