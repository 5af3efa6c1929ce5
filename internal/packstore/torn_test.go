package packstore_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/vfs"
)

// Format sizes the cuts are placed by (packstore.go's Format section).
const (
	memberSumLen = 8  // the checksum that trails each record's payload
	footerLen    = 40 // indexOffset | indexSize | count | indexChecksum | magic
)

// TestTornPackIsRefused cuts a finalised pack at every place a crash or a
// failed append can leave its tail — inside the footer, inside the index,
// right after the last record, and inside the last record's checksum,
// payload and header — and requires every way of opening a pack to refuse
// each cut with ErrCorrupt naming the file, without panicking. A pack is
// staged data: a torn one is exported again from its input, never read
// as a shorter corpus.
func TestTornPackIsRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.pack")
	w, err := packstore.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, (i*37)%4096)
		if err := w.Append(fmt.Sprintf("dir%d/file-%04d.txt", i%3, i), int64(len(data)), bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// opens are the four ways a pack is opened: the shared-handle pack,
	// the mapped reader, a set, and the mapped import pipeline and serve
	// read through.
	opens := map[string]func(path string) error{
		"Open": func(path string) error {
			p, err := packstore.Open(path)
			if err == nil {
				p.Close()
			}
			return err
		},
		"OpenReader": func(path string) error {
			r, err := packstore.OpenReader(path)
			if err == nil {
				r.Close()
			}
			return err
		},
		"OpenSet": func(path string) error {
			s, err := packstore.OpenSet(path)
			if err == nil {
				s.Close()
			}
			return err
		},
		"vfs.ImportPackMappedCtx": func(path string) error {
			_, c, err := vfs.ImportPackMappedCtx(context.Background(), path)
			if err == nil {
				c.Close()
			}
			return err
		},
	}
	// The intact pack opens every way, so each refusal below is the cut's.
	for via, open := range opens {
		if err := open(path); err != nil {
			t.Fatalf("%s(intact pack): %v", via, err)
		}
	}
	p, err := packstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var last packstore.Member // the last record appended
	for _, m := range p.Members() {
		if m.Offset > last.Offset {
			last = m
		}
	}
	p.Close()
	lastEnd := last.Offset + last.Size + memberSumLen

	cuts := []struct {
		name string
		size int64 // file length after the cut
	}{
		{"mid-footer", int64(len(raw)) - 5},
		{"mid-index", lastEnd + 10},
		{"index-lost", lastEnd},
		{"mid-last-checksum", lastEnd - 3},
		{"mid-last-payload", lastEnd - memberSumLen - 1},
		{"mid-last-header", last.Offset - 2},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			cut := filepath.Join(dir, tc.name+".pack")
			if err := os.WriteFile(cut, raw[:tc.size], 0o644); err != nil {
				t.Fatal(err)
			}
			for via, open := range opens {
				err := open(cut)
				if !errors.Is(err, errs.ErrCorrupt) || !strings.Contains(err.Error(), cut) {
					t.Errorf("%s(pack cut %s) = %v, want ErrCorrupt naming %s", via, tc.name, err, cut)
				}
			}
		})
	}
}
