package corpus

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/vfs"
)

// TestEagerMatchesLazy pins the tentpole determinism guarantee: the
// parallel, eagerly-materialised corpus is byte-identical to the lazy
// on-demand one at any worker count, because sizes come from the same
// sequential stream and content seeds derive from (seed, name).
func TestEagerMatchesLazy(t *testing.T) {
	spec := Text400K(0.0002) // 80 files
	const seed = 99
	lazy, err := GenerateWithContent(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0, 7} {
		eager, err := GenerateWithContentEagerCtx(context.Background(), spec, seed, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if eager.Len() != lazy.Len() || eager.TotalSize() != lazy.TotalSize() {
			t.Fatalf("workers=%d: shape %d/%d != lazy %d/%d",
				workers, eager.Len(), eager.TotalSize(), lazy.Len(), lazy.TotalSize())
		}
		le, ll := eager.List(), lazy.List()
		for i := range ll {
			if le[i].Name != ll[i].Name || le[i].Size != ll[i].Size {
				t.Fatalf("workers=%d file %d: %s/%d != %s/%d",
					workers, i, le[i].Name, le[i].Size, ll[i].Name, ll[i].Size)
			}
			a, err := le[i].ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			b, err := ll[i].ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("workers=%d: content of %s differs from lazy", workers, le[i].Name)
			}
		}
	}
}

// TestEagerHTMLChecksum covers the HTML branch via the corpus manifest:
// every eager file has the lazy file's size and checksum.
func TestEagerHTMLChecksum(t *testing.T) {
	spec := HTML18Mil(0.000002) // 36 files
	lazy, err := GenerateWithContent(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := vfs.BuildManifestCtx(context.Background(), lazy)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := GenerateWithContentEagerCtx(context.Background(), spec, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.VerifyCtx(context.Background(), eager); err != nil {
		t.Errorf("eager corpus differs from lazy: %v", err)
	}
}
