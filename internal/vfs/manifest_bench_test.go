package vfs_test

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/vfs"
)

func BenchmarkBuildManifest(b *testing.B) {
	fs, err := corpus.GenerateWithContentEagerCtx(context.Background(), corpus.Text400K(0.0005), 10, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fs.TotalSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vfs.BuildManifestCtx(context.Background(), fs); err != nil {
			b.Fatal(err)
		}
	}
}
