//go:build scandebug

package vfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestImportDirMappedPoisonsReleasedViews: under the scandebug tag a raw
// view kept past its import's close reads 0xDB, not its file's bytes, and
// once the next import refills its slab it reads that import's bytes or
// poison — never the stale-but-plausible content it was handed.
func TestImportDirMappedPoisonsReleasedViews(t *testing.T) {
	a, b := seededTree(t, 300, 4), seededTree(t, 300, 5)
	fs, closer := importMapped(t, a)
	kept := map[string][]byte{}
	for _, f := range fs.List() {
		raw, err := f.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		kept[f.Name] = raw
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	for name, raw := range kept {
		if len(raw) == 0 || bytes.Count(raw, []byte{0xDB}) != len(raw) {
			t.Fatalf("%s: a view kept past Close does not read 0xDB", name)
		}
	}

	fsB, closeB := importMapped(t, b)
	defer closeB.Close()
	requireTreeBytes(t, fsB, b)
	for name, raw := range kept {
		orig, err := os.ReadFile(filepath.Join(a, filepath.FromSlash(name)))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(raw, orig) {
			t.Fatalf("%s: a view kept past Close reads its file's bytes again", name)
		}
	}
}
