package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// TestReshapePackRoundTrip pins the full durable-store chain: a corpus
// reshaped into unit files, exported as pack shards and re-imported must
// be bit-identical to the in-memory reshape — same per-unit manifest —
// and no byte may be lost (the packer reorders files across units, so
// content is pinned on the merged FS and its round-trip, while total
// volume pins against the original).
func TestReshapePackRoundTrip(t *testing.T) {
	fs, err := corpus.GenerateWithContent(corpus.Text400K(0.0004), 7)
	if err != nil {
		t.Fatal(err)
	}

	merged, bins, err := ReshapeCtx(context.Background(), fs, 50_000, "unit")
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) < 2 {
		t.Fatalf("expected multiple unit files, got %d", len(bins))
	}
	if merged.TotalSize() != fs.TotalSize() {
		t.Fatalf("reshape changed total volume: %d != %d", merged.TotalSize(), fs.TotalSize())
	}
	manifest, err := scan.BuildManifestCtx(context.Background(), merged)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	paths, err := merged.ExportPackCtx(context.Background(), dir, vfs.PackOptions{Prefix: "unit", ShardSize: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no pack shards written")
	}
	imported, closer, err := vfs.ImportPackCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	if imported.Len() != merged.Len() {
		t.Fatalf("imported %d unit files, want %d", imported.Len(), merged.Len())
	}
	if err := manifest.VerifyCtx(context.Background(), imported); err != nil {
		t.Fatalf("per-unit manifest verify over pack import: %v", err)
	}
}

// BenchmarkReshapeExport12k is the reshape as a command pays for it, on
// the repository benchmark's shape: 12 000 small files on disk → ImportDir
// → ReshapeCtx into 1 MiB units → ExportPackCtx into 4 MiB shards. Bytes
// per op are the corpus; the timed loop includes removing the previous
// iteration's shards.
func BenchmarkReshapeExport12k(b *testing.B) {
	ctx := context.Background()
	spec := corpus.Text400K(1)
	spec.NumFiles = 12000
	mem, err := corpus.GenerateWithContentEagerCtx(ctx, spec, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	plain, out := filepath.Join(b.TempDir(), "plain"), filepath.Join(b.TempDir(), "packs")
	if err := mem.ExportCtx(ctx, plain); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(mem.TotalSize())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := vfs.ImportDir(plain)
		if err != nil {
			b.Fatal(err)
		}
		merged, _, err := ReshapeCtx(ctx, in, 1<<20, "unit")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := merged.ExportPackCtx(ctx, out, vfs.PackOptions{Prefix: "unit", ShardSize: 4 << 20}); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(out); err != nil {
			b.Fatal(err)
		}
	}
}
