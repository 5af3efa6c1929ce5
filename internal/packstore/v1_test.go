package packstore_test

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/packstore"
	"repro/internal/vfs"
)

// TestPackV1IsRefused: testdata/v1.pack is a two-member pack written by
// the FNV-64a format's Writer. Every way in — Open, the mapped reader and
// the vfs import of its directory — refuses it with
// ErrInvalid naming the format, not with a checksum mismatch that would
// read as damage.
func TestPackV1IsRefused(t *testing.T) {
	const dir, path = "testdata", "testdata/v1.pack"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "RPACKv1\n") {
		t.Fatalf("fixture starts %q, want the v1 magic", raw[:8])
	}
	ways := map[string]func() error{
		"Open": func() error {
			p, err := packstore.Open(path)
			if err == nil {
				p.Close()
			}
			return err
		},
		"OpenReader": func() error {
			r, err := packstore.OpenReader(path)
			if err == nil {
				r.Close()
			}
			return err
		},
		"vfs.ImportPackCtx": func() error {
			_, c, err := vfs.ImportPackCtx(context.Background(), dir)
			if err == nil {
				c.Close()
			}
			return err
		},
	}
	for via, open := range ways {
		err := open()
		if !errors.Is(err, errs.ErrInvalid) || !strings.Contains(err.Error(), "v1") {
			t.Errorf("%s(v1 pack) = %v, want ErrInvalid naming v1", via, err)
		}
	}
}
