package scan_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/fault"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// TestOpenFailureIsReportedAsItself: a content source that cannot be
// opened says so — from File.Open, from ReadAll and from a scan — with
// the file's name and the cause still reachable, and never dressed up as
// the size mismatch a reader that fails on its first Read used to become.
func TestOpenFailureIsReportedAsItself(t *testing.T) {
	// onDisk imports a one-file directory and hands back the path to
	// remove once whatever is built on the import has been built.
	onDisk := func(t *testing.T, name, content string) (*vfs.FS, string) {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := vfs.ImportDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return fs, path
	}
	errBase := errors.New("base store offline")

	cases := []struct {
		name  string
		file  string // the file that fails to open
		cause error
		build func(t *testing.T) *vfs.FS
	}{
		{"ImportDir, file removed after import", "gone.txt", os.ErrNotExist, func(t *testing.T) *vfs.FS {
			fs, path := onDisk(t, "gone.txt", "some words\n")
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			return fs
		}},
		{"fault.WrapFS over a failing base", "base.txt", errBase, func(t *testing.T) *vfs.FS {
			base := vfs.NewFS()
			if err := base.Add(vfs.NewContentFile("base.txt", 11, func() (io.Reader, error) { return nil, errBase })); err != nil {
				t.Fatal(err)
			}
			inj, err := fault.New(fault.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := inj.WrapFS(base)
			if err != nil {
				t.Fatal(err)
			}
			return wrapped
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := tc.build(t)
			f, err := fs.Get(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			_, openErr := f.Open()
			_, readErr := f.ReadAll()
			scanErr := scan.Run(context.Background(), vfs.Sources(fs.List()), scan.Options{Workers: 1}, scan.NewChecksum())
			for via, err := range map[string]error{"Open": openErr, "ReadAll": readErr, "scan.Run": scanErr} {
				switch {
				case !errors.Is(err, tc.cause):
					t.Errorf("%s: err = %v, want it to wrap %v", via, err, tc.cause)
				case strings.Count(err.Error(), fmt.Sprintf("vfs: open %q", tc.file)) != 1:
					t.Errorf("%s: err = %v, want it to name %q exactly once", via, err, tc.file)
				case errors.Is(err, errs.ErrCorrupt) || strings.Contains(err.Error(), "declared"):
					t.Errorf("%s: err = %v, reported as a size mismatch", via, err)
				}
			}
		})
	}
}
