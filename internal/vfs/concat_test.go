package vfs

import (
	"bytes"
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
