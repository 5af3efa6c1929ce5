package textproc

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vfs"
)

func TestSearcherErrors(t *testing.T) {
	if _, err := NewSearcher(""); err == nil {
		t.Error("expected error for empty pattern")
	}
	if _, err := NewFoldedSearcher(""); err == nil {
		t.Error("expected error for empty folded pattern")
	}
	if _, err := NewRegexpSearcher("("); err == nil {
		t.Error("expected error for invalid regexp")
	}
}

func TestCountBytesLiteral(t *testing.T) {
	s, err := NewSearcher("ab")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		text string
		want int64
	}{
		{"", 0},
		{"a", 0},
		{"ab", 1},
		{"abab", 2},
		{"aab", 1},
		{"xyz", 0},
		{"ababab", 3},
	}
	for _, c := range cases {
		if got := s.CountBytes([]byte(c.text)); got != c.want {
			t.Errorf("count(%q) = %d, want %d", c.text, got, c.want)
		}
	}
}

func TestCountBytesOverlapping(t *testing.T) {
	s, _ := NewSearcher("aa")
	if got := s.CountBytes([]byte("aaaa")); got != 3 {
		t.Errorf("overlapping count = %d, want 3", got)
	}
}

func TestCountBytesSingleByte(t *testing.T) {
	s, _ := NewSearcher("x")
	if got := s.CountBytes([]byte("xxhxx")); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
}

func TestFoldedSearch(t *testing.T) {
	s, err := NewFoldedSearcher("CaT")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CountBytes([]byte("cat CAT cAt dog")); got != 3 {
		t.Errorf("folded count = %d, want 3", got)
	}
}

func TestRegexpSearch(t *testing.T) {
	s, err := NewRegexpSearcher(`c.t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CountBytes([]byte("cat cot cut dog")); got != 3 {
		t.Errorf("regexp count = %d, want 3", got)
	}
}

func TestCountReaderMatchesCountBytes(t *testing.T) {
	// Build a long text with matches straddling the 64 KiB window.
	r := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	for buf.Len() < 3*grepBufSize {
		if r.Intn(100) == 0 {
			buf.WriteString("needle")
		} else {
			buf.WriteByte(byte('a' + r.Intn(4)))
		}
	}
	data := buf.Bytes()
	s, _ := NewSearcher("needle")
	want := s.CountBytes(data)
	if want == 0 {
		t.Fatal("test text has no matches")
	}
	got, err := s.CountReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("streaming count = %d, batch count = %d", got, want)
	}
}

func TestCountReaderMatchSpanningWindow(t *testing.T) {
	// Place a match exactly across the window boundary.
	pat := "boundary"
	data := make([]byte, grepBufSize-4)
	for i := range data {
		data[i] = 'x'
	}
	data = append(data, pat...)
	for i := 0; i < 100; i++ {
		data = append(data, 'y')
	}
	s, _ := NewSearcher(pat)
	got, err := s.CountReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("boundary-straddling count = %d, want 1", got)
	}
}

// drizzleReader yields data in tiny random chunks to stress carry logic.
type drizzleReader struct {
	data []byte
	r    *rand.Rand
}

func (d *drizzleReader) Read(p []byte) (int, error) {
	if len(d.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + d.r.Intn(7)
	if n > len(d.data) {
		n = len(d.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, d.data[:n])
	d.data = d.data[n:]
	return n, nil
}

func TestCountReaderTinyReads(t *testing.T) {
	data := []byte(strings.Repeat("zxneedlexz", 50))
	s, _ := NewSearcher("needle")
	want := s.CountBytes(data)
	got, err := s.CountReader(&drizzleReader{data: data, r: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("tiny-read count = %d, want %d", got, want)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, fmt.Errorf("disk exploded") }

func TestCountReaderPropagatesError(t *testing.T) {
	s, _ := NewSearcher("x")
	if _, err := s.CountReader(failingReader{}); err == nil {
		t.Error("expected read error")
	}
}

// grepFiles streams each file through CountReader in order and returns
// the per-file and total match counts.
func grepFiles(s *Searcher, files []vfs.File) (perFile []int64, total int64, err error) {
	for _, f := range files {
		r, err := f.Open()
		if err != nil {
			return nil, 0, err
		}
		n, err := s.CountReader(r)
		if c, ok := r.(io.Closer); ok {
			c.Close()
		}
		if err != nil {
			return nil, 0, err
		}
		perFile = append(perFile, n)
		total += n
	}
	return perFile, total, nil
}

func TestGrepFilesAndFS(t *testing.T) {
	fs := vfs.NewFS()
	_ = fs.Add(vfs.BytesFile("a.txt", []byte("the word appears: word")))
	_ = fs.Add(vfs.BytesFile("b.txt", []byte("no match here")))
	_ = fs.Add(vfs.BytesFile("c.txt", []byte("word")))
	s, _ := NewSearcher("word")
	perFile, total, err := grepFiles(s, fs.List())
	if err != nil {
		t.Fatal(err)
	}
	if total != 3 {
		t.Errorf("total matches = %d, want 3", total)
	}
	if len(perFile) != 3 {
		t.Fatalf("file results = %d", len(perFile))
	}
	// List order is name-sorted: a, b, c.
	if perFile[0] != 2 || perFile[1] != 0 || perFile[2] != 1 {
		t.Errorf("per-file matches: %v", perFile)
	}
}

func TestGrepMetadataOnlyFileFails(t *testing.T) {
	fs := vfs.NewFS()
	_ = fs.Add(vfs.NewFile("meta", 10))
	s, _ := NewSearcher("x")
	if _, _, err := grepFiles(s, fs.List()); err == nil {
		t.Error("expected error for metadata-only file")
	}
}

// The paper's key correctness invariant: reshaping (concatenating files)
// must not change the application's aggregate output. For a non-self-
// overlapping pattern and separator-free concatenation, total match counts
// can only grow by matches spanning file boundaries; with a pattern known
// not to straddle (we insert newlines), counts must be identical.
func TestGrepInvariantUnderConcat(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var members []vfs.File
	for i := 0; i < 40; i++ {
		var buf bytes.Buffer
		for j := 0; j < 1+r.Intn(50); j++ {
			if r.Intn(6) == 0 {
				buf.WriteString("needle")
			}
			buf.WriteString("ha ")
		}
		buf.WriteByte('\n') // boundary guard
		members = append(members, vfs.BytesFile(fmt.Sprintf("m%02d", i), append([]byte(nil), buf.Bytes()...)))
	}
	s, _ := NewSearcher("needle")
	_, separate, err := grepFiles(s, members)
	if err != nil {
		t.Fatal(err)
	}
	merged := vfs.Concat("unit", members)
	_, combined, err := grepFiles(s, []vfs.File{merged})
	if err != nil {
		t.Fatal(err)
	}
	if separate != combined {
		t.Errorf("reshaping changed grep output: %d vs %d", separate, combined)
	}
}

// Property: BMH count equals a naive reference count for random inputs.
func TestBMHMatchesNaiveProperty(t *testing.T) {
	naive := func(hay, pat []byte) int64 {
		var c int64
		for i := 0; i+len(pat) <= len(hay); i++ {
			if bytes.Equal(hay[i:i+len(pat)], pat) {
				c++
			}
		}
		return c
	}
	f := func(hayRaw []byte, patRaw []byte) bool {
		// Map to a small alphabet so matches actually occur.
		small := func(b []byte) []byte {
			out := make([]byte, len(b))
			for i, c := range b {
				out[i] = 'a' + c%3
			}
			return out
		}
		hay := small(hayRaw)
		pat := small(patRaw)
		if len(pat) == 0 || len(pat) > 8 {
			return true
		}
		s, err := NewSearcher(string(pat))
		if err != nil {
			return false
		}
		return s.CountBytes(hay) == naive(hay, pat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: streaming count equals batch count for random chunked input.
func TestStreamEqualsBatchProperty(t *testing.T) {
	f := func(hayRaw []byte, seed int64) bool {
		hay := make([]byte, len(hayRaw))
		for i, c := range hayRaw {
			hay[i] = 'a' + c%2
		}
		s, err := NewSearcher("abba")
		if err != nil {
			return false
		}
		want := s.CountBytes(hay)
		got, err := s.CountReader(&drizzleReader{data: hay, r: rand.New(rand.NewSource(seed))})
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
