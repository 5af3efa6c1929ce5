package packstore

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"testing"
)

// benchPack writes one pack of n members × memberSize bytes and returns
// the opened pack.
func benchPack(b *testing.B, n int, memberSize int) *Pack {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.pack")
	w, err := Create(path)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, memberSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	for i := 0; i < n; i++ {
		if err := appendBytes(w, fmt.Sprintf("m-%06d", i), data); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	p, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.Close() })
	return p
}

// randomAccessBench reads one mid-pack member per iteration. Comparing
// the small and large variants demonstrates O(1) member access: the cost
// tracks the member size, not the pack size.
func randomAccessBench(p *Pack) func(b *testing.B) {
	return func(b *testing.B) {
		m := p.Members()[p.Len()/2]
		buf := make([]byte, m.Size)
		b.SetBytes(m.Size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := io.ReadFull(p.SectionReader(m), buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkPackRandomAccess64(b *testing.B)   { randomAccessBench(benchPack(b, 64, 8192))(b) }
func BenchmarkPackRandomAccess2048(b *testing.B) { randomAccessBench(benchPack(b, 2048, 8192))(b) }

func BenchmarkPackVerify512(b *testing.B) {
	p := benchPack(b, 512, 8192)
	b.SetBytes(512 * 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.VerifyCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackVerifyUnits verifies the reshaped corpus's shape: 25 unit
// members of 1 MiB, where the checksum, not the per-member overhead, is
// the cost.
func BenchmarkPackVerifyUnits(b *testing.B) {
	p := benchPack(b, 25, 1<<20)
	b.SetBytes(25 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.VerifyCtx(context.Background(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackWrite512(b *testing.B) {
	data := make([]byte, 8192)
	for i := range data {
		data[i] = byte(i % 251)
	}
	dir := b.TempDir()
	b.SetBytes(512 * 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := Create(filepath.Join(dir, fmt.Sprintf("w%d.pack", i)))
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 512; j++ {
			if err := appendBytes(w, fmt.Sprintf("m-%06d", j), data); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
