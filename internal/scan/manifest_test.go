package scan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/vfs"
)

// cancelCorpus builds a deterministic in-memory corpus for cancellation
// tests.
func cancelCorpus(n int) *vfs.FS {
	fs := vfs.NewFS()
	for i := 0; i < n; i++ {
		data := make([]byte, 512+i)
		for j := range data {
			data[j] = byte((i*131 + j*7) % 251)
		}
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("file-%04d", i), data)); err != nil {
			panic(err)
		}
	}
	return fs
}

// contentFS builds a file system of deterministic pseudo-random content
// files, including empty files and one several scan blocks long.
func contentFS(t *testing.T, n int) *vfs.FS {
	t.Helper()
	fs := vfs.NewFS()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		size := r.Intn(8000)
		if i%17 == 0 {
			size = 0
		}
		data := make([]byte, size)
		r.Read(data)
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("f/%04d.bin", i), data)); err != nil {
			t.Fatal(err)
		}
	}
	big := make([]byte, 5<<20)
	r.Read(big)
	if err := fs.Add(vfs.BytesFile("f/big.bin", big)); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestBuildManifestCtxCancellation: at every worker count a pre-cancelled
// context yields the typed cancellation error, and a subsequent live run
// over the same vfs.FS is byte-identical to a never-cancelled one.
func TestBuildManifestCtxCancellation(t *testing.T) {
	fs := cancelCorpus(64)
	want, err := BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		if _, err := buildManifest(cancelled, fs, workers); !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("workers=%d: cancelled build returned %v, want ErrCancelled", workers, err)
		}
		// The cancelled attempt must not poison the corpus: a completed
		// run afterwards reproduces the reference manifest exactly.
		got, err := buildManifest(context.Background(), fs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d entries, want %d", workers, len(got), len(want))
		}
		for name, w := range want {
			if got[name] != w {
				t.Fatalf("workers=%d: %s = %+v, want %+v", workers, name, got[name], w)
			}
		}
	}
}

func TestBuildManifestWorkerCountInvariant(t *testing.T) {
	fs := contentFS(t, 120)
	serial, err := buildManifest(context.Background(), fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 16} {
		m, err := buildManifest(context.Background(), fs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(m, serial) {
			t.Errorf("workers=%d: manifest differs from serial", workers)
		}
	}
	if err := serial.VerifyCtx(context.Background(), fs); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildManifest(b *testing.B) {
	fs, err := corpus.GenerateWithContentEagerCtx(context.Background(), corpus.Text400K(0.0005), 10, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fs.TotalSize())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildManifestCtx(context.Background(), fs); err != nil {
			b.Fatal(err)
		}
	}
}
