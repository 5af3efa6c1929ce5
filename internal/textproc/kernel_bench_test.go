package textproc_test

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/scan"
	"repro/internal/scan/kerneltest"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// Per-kernel compute: one kernel, one 1 MB block, no engine.
// These are the hot-loop throughput numbers the kernel-compute rework is
// held to; benchmark/probes.go measures the same cycle over each
// workload's own bytes. Every kernel runs over three shapes of the same
// text: "plain" as the generator emits it (lowercase, newline-free ASCII
// with only ',' and '.'), which is all the repository benchmark scans;
// "wrapped" through kerneltest.Prose (72-column lines, tab-indented
// paragraphs, capitalised sentences, an 'é' every 8 KB or so); and
// "accented", the same with an 'é' every 40 bytes or so — a tokenizer can
// be fast on the first and slow on the others.

type kernelShape struct {
	name string
	text []byte
}

func kernelShapes() []kernelShape {
	plain := corpus.NewGenerator(corpus.NewsStyle(), 6).Text(1 << 20)
	return []kernelShape{{"plain", plain}, {"wrapped", kerneltest.Prose(plain, 1000)}, {"accented", kerneltest.Prose(plain, 4)}}
}

func benchKernelPerMB(b *testing.B, mk func() scan.Kernel) {
	b.Helper()
	for _, shape := range kernelShapes() {
		b.Run(shape.name, func(b *testing.B) {
			src := scan.Source{Name: "kernel-1mb", Size: int64(len(shape.text))}
			k := mk()
			b.SetBytes(int64(len(shape.text)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Begin(src)
				k.Block(shape.text)
				k.End()
			}
		})
	}
}

func BenchmarkKernelChecksumPerMB(b *testing.B) {
	benchKernelPerMB(b, func() scan.Kernel { return scan.NewChecksum() })
}

// kernelPatterns is the repository benchmark's grep set: 42 bytes in 8
// patterns, inside the matcher's stride budget (total + 2 × patterns ≤
// 64), so the bitap engine takes three bytes a step. pastStridePatterns is
// a bitap set of 50 bytes in 8 patterns, past that budget, which steps one
// byte at a time: each matcher benchmark times it too, as its
// "single-step" subcase.
var (
	kernelPatterns     = []string{"the", "and", "president", "market", "city", "nation", "report", "error"}
	pastStridePatterns = []string{"the", "and", "president", "market", "business", "nation", "report", "community"}
)

// benchMatcherSets runs bench under the production set and, as the
// "single-step" subcase, under the set past the stride budget.
func benchMatcherSets(b *testing.B, bench func(*testing.B, *textproc.MultiSearcher)) {
	b.Helper()
	ms, err := textproc.NewMultiSearcher(kernelPatterns)
	if err != nil {
		b.Fatal(err)
	}
	bench(b, ms)
	single, err := textproc.NewMultiSearcher(pastStridePatterns)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single-step", func(b *testing.B) { bench(b, single) })
}

func BenchmarkKernelMatchPerMB(b *testing.B) {
	benchMatcherSets(b, func(b *testing.B, ms *textproc.MultiSearcher) {
		benchKernelPerMB(b, func() scan.Kernel { return textproc.NewMatchKernel(ms) })
	})
}

// BenchmarkKernelChecksumMatchPerMB is the checksum and the match kernel
// as a measurement holds them: scan.Run, one worker, over one 1 MiB raw
// source, so the checksum rides the matcher's byte loop
// (scan.SumCarrier). Read against KernelMatchPerMB and
// KernelChecksumPerMB, it is what the pair costs over the matcher alone.
func BenchmarkKernelChecksumMatchPerMB(b *testing.B) {
	benchMatcherSets(b, func(b *testing.B, ms *textproc.MultiSearcher) {
		for _, shape := range kernelShapes() {
			b.Run(shape.name, func(b *testing.B) {
				text := shape.text
				srcs := []scan.Source{vfs.BytesFile("kernel-1mb", text).WithRawBytes(text)}
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := scan.Run(context.Background(), srcs, scan.Options{Workers: 1}, scan.NewChecksum(), textproc.NewMatchKernel(ms))
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

func BenchmarkKernelStatsPerMB(b *testing.B) {
	benchKernelPerMB(b, func() scan.Kernel { return textproc.NewStatsKernel() })
}

func BenchmarkKernelComplexityPerMB(b *testing.B) {
	tagger := textproc.NewTagger()
	benchKernelPerMB(b, func() scan.Kernel { return textproc.NewAnalyzerKernel(tagger) })
}
