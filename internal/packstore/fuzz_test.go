package packstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/errs"
)

// FuzzPackOpen feeds arbitrary bytes as a pack file to both readers: Open,
// and OpenReader with each member's MemberBytes. Neither may panic; each
// refusal wraps ErrCorrupt or ErrInvalid; a pack either accepts verifies
// clean or fails with ErrCorrupt. Seeds: a valid pack, the v1 fixture and
// a pack with a torn tail.
func FuzzPackOpen(f *testing.F) {
	valid := filepath.Join(f.TempDir(), "seed.pack")
	w, err := Create(valid)
	if err != nil {
		f.Fatal(err)
	}
	// Small seeds keep the minimisation of each new input short.
	for _, name := range []string{"a", "b/c"} {
		if err := appendBytes(w, name, []byte("payload "+name)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	for _, path := range []string{valid, "testdata/v1.pack"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		if path == valid {
			f.Add(raw[:len(raw)-footerLen-5])
		}
	}

	path := filepath.Join(f.TempDir(), "fuzz.pack")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		refused := func(via string, err error) {
			if !errors.Is(err, errs.ErrCorrupt) && !errors.Is(err, errs.ErrInvalid) {
				t.Fatalf("%s refused with an untyped error: %v", via, err)
			}
		}
		verified := func(via string, p *Pack) {
			if err := p.VerifyCtx(context.Background(), 1); err != nil && !errors.Is(err, errs.ErrCorrupt) {
				t.Fatalf("%s: VerifyCtx failed untyped: %v", via, err)
			}
		}
		if p, err := Open(path); err != nil {
			refused("Open", err)
		} else {
			verified("Open", p)
			p.Close()
		}
		if r, err := OpenReader(path); err != nil {
			refused("OpenReader", err)
		} else {
			for i, m := range r.Pack().Members() {
				if got := int64(len(r.MemberBytes(i))); got != m.Size {
					t.Fatalf("MemberBytes(%d) holds %d bytes, index says %d", i, got, m.Size)
				}
			}
			verified("OpenReader", r.Pack())
			r.Close()
		}
	})
}
