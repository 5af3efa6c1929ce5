package vfs

import (
	"context"
	"hash/fnv"
	"io"
	"testing"
)

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

func TestChecksumDeterministicAndDiscriminating(t *testing.T) {
	ctx := context.Background()
	a := BytesFile("a", []byte("hello"))
	b := BytesFile("b", []byte("hellp"))
	fs := NewFS()
	_ = fs.Add(a)
	_ = fs.Add(b)
	m1, err := BuildManifestCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := BuildManifestCtx(ctx, fs)
	if err != nil {
		t.Fatal(err)
	}
	if m1["a"] != m2["a"] || m1["b"] != m2["b"] {
		t.Error("checksum not deterministic")
	}
	if m1["a"].Checksum == m1["b"].Checksum {
		t.Error("different content, same checksum")
	}
	for _, f := range []File{a, b} {
		want, err := checksumOracle(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := m1[f.Name].Checksum; got != want {
			t.Errorf("%s: member checksum %x, hash/fnv says %x", f.Name, got, want)
		}
	}
	meta := NewFS()
	_ = meta.Add(NewFile("meta", 5))
	if _, err := BuildManifestCtx(ctx, meta); err == nil {
		t.Error("expected error for metadata-only file")
	}
}

func TestManifestVerify(t *testing.T) {
	fs := NewFS()
	_ = fs.Add(BytesFile("x", []byte("one")))
	_ = fs.Add(BytesFile("y", []byte("two")))
	m, err := BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCtx(context.Background(), fs); err != nil {
		t.Fatalf("self-verify failed: %v", err)
	}

	// Missing file.
	fs2 := NewFS()
	_ = fs2.Add(BytesFile("x", []byte("one")))
	if err := m.VerifyCtx(context.Background(), fs2); err == nil {
		t.Error("expected error for missing file")
	}
	// Extra file.
	fs3 := NewFS()
	_ = fs3.Add(BytesFile("x", []byte("one")))
	_ = fs3.Add(BytesFile("y", []byte("two")))
	_ = fs3.Add(BytesFile("z", []byte("three")))
	if err := m.VerifyCtx(context.Background(), fs3); err == nil {
		t.Error("expected error for extra file")
	}
	// Corrupted content (same size).
	fs4 := NewFS()
	_ = fs4.Add(BytesFile("x", []byte("one")))
	_ = fs4.Add(BytesFile("y", []byte("tWo")))
	if err := m.VerifyCtx(context.Background(), fs4); err == nil {
		t.Error("expected error for corrupted content")
	}
	// Wrong size.
	fs5 := NewFS()
	_ = fs5.Add(BytesFile("x", []byte("one")))
	_ = fs5.Add(BytesFile("y", []byte("twooo")))
	if err := m.VerifyCtx(context.Background(), fs5); err == nil {
		t.Error("expected error for wrong size")
	}
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
