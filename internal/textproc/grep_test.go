package textproc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vfs"
)

// grepFiles reads each file in order through a one-pattern matcher and
// returns the per-file and total match counts.
func grepFiles(ms *MultiSearcher, files []vfs.File) (perFile []int64, total int64, err error) {
	for _, f := range files {
		data, err := f.ReadAll()
		if err != nil {
			return nil, 0, err
		}
		counts := make([]int64, 1)
		ms.Feed(ms.Start(), data, counts)
		perFile = append(perFile, counts[0])
		total += counts[0]
	}
	return perFile, total, nil
}

func TestGrepFilesAndFS(t *testing.T) {
	fs := vfs.NewFS()
	_ = fs.Add(vfs.BytesFile("a.txt", []byte("the word appears: word")))
	_ = fs.Add(vfs.BytesFile("b.txt", []byte("no match here")))
	_ = fs.Add(vfs.BytesFile("c.txt", []byte("word")))
	ms, _ := NewMultiSearcher([]string{"word"})
	perFile, total, err := grepFiles(ms, fs.List())
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
	ms, _ := NewMultiSearcher([]string{"x"})
	if _, _, err := grepFiles(ms, fs.List()); err == nil {
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
	ms, _ := NewMultiSearcher([]string{"needle"})
	_, separate, err := grepFiles(ms, members)
	if err != nil {
		t.Fatal(err)
	}
	merged := vfs.Concat("unit", members)
	_, combined, err := grepFiles(ms, []vfs.File{merged})
	if err != nil {
		t.Fatal(err)
	}
	if separate != combined {
		t.Errorf("reshaping changed grep output: %d vs %d", separate, combined)
	}
}
