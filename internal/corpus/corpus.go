// Package corpus generates the synthetic datasets standing in for the
// paper's corpora: HTML_18mil (≈18 million HTML news articles, ≈900 GB,
// long-tailed sizes, max 43 MB) and Text_400K (400,000 extracted text files,
// ≈1 GB, >40% under 1 kB, max 705 kB). Size distributions are log-normal
// with parameters chosen to match the published summary statistics; text
// content comes from the style-driven generator in textgen.go.
//
// Generation is deterministic given a seed, and supports a scale factor so
// tests can work with thousands of files while the experiment harness can
// reproduce full-scale metadata-only corpora.
package corpus

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// Units.
const (
	KB int64 = 1000
	MB       = 1000 * KB
	GB       = 1000 * MB
)

// SizeDist is a log-normal file-size distribution with hard bounds.
type SizeDist struct {
	Mu    float64 // log-space mean
	Sigma float64 // log-space stddev
	Min   int64   // smallest admissible size, bytes
	Max   int64   // largest admissible size, bytes
}

// Sample draws one size.
func (d SizeDist) Sample(r *rand.Rand) int64 {
	v := stats.Bounded(func() float64 {
		return stats.LogNormal(r, d.Mu, d.Sigma)
	}, float64(d.Min), float64(d.Max), 64)
	return int64(math.Round(v))
}

// Median returns the distribution's unbounded median, exp(Mu).
func (d SizeDist) Median() float64 { return math.Exp(d.Mu) }

// Mean returns the unbounded mean, exp(Mu + Sigma²/2).
func (d SizeDist) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Spec describes a synthetic dataset.
type Spec struct {
	Name     string
	NumFiles int
	Sizes    SizeDist
	Style    Style
	HTML     bool // wrap content in an HTML article skeleton
	Ext      string
}

// HTML18Mil returns the spec for the HTML news corpus at the given scale
// (scale 1.0 = 18 million files; the paper's experiments use subsets). The
// distribution is tuned so the mean size is ≈50 kB (900 GB / 18M files), the
// majority of files fall under 50 kB, and the hard cap is the paper's 43 MB
// maximum.
func HTML18Mil(scale float64) Spec {
	n := int(18_000_000 * scale)
	if n < 1 {
		n = 1
	}
	return Spec{
		Name:     "HTML_18mil",
		NumFiles: n,
		Sizes: SizeDist{
			Mu:    math.Log(24 * 1000), // median ≈24 kB
			Sigma: 1.2,                 // mean ≈ e^{μ+σ²/2} ≈ 49 kB, long tail
			Min:   500,
			Max:   43 * MB,
		},
		Style: NewsStyle(),
		HTML:  true,
		Ext:   ".html",
	}
}

// Text400K returns the spec for the extracted-text corpus at the given
// scale (scale 1.0 = 400,000 files). Tuned so >40% of files are under 1 kB
// (the paper's stated fraction), the majority under 5 kB, total ≈1 GB, and
// the maximum is 705 kB.
func Text400K(scale float64) Spec {
	n := int(400_000 * scale)
	if n < 1 {
		n = 1
	}
	return Spec{
		Name:     "Text_400K",
		NumFiles: n,
		Sizes: SizeDist{
			Mu:    math.Log(1280), // median ≈1.28 kB → P(size<1 kB) ≈ 0.40
			Sigma: 1.0,
			Min:   64,
			Max:   705 * KB,
		},
		Style: NewsStyle(),
		HTML:  false,
		Ext:   ".txt",
	}
}

// Generate builds a metadata-only corpus: file names and sizes but no
// content. This is the cheap form used for packing and provisioning
// experiments over millions of files.
func Generate(spec Spec, seed int64) (*vfs.FS, error) {
	fs := vfs.NewFS()
	r := stats.NewRand(seed, "corpus-sizes-"+spec.Name)
	for i := 0; i < spec.NumFiles; i++ {
		f := vfs.NewFile(fileName(spec, i), spec.Sizes.Sample(r))
		if err := fs.Add(f); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// GenerateWithContent builds a corpus whose files materialise real text (or
// HTML) deterministically on demand. Content for file i is produced by a
// generator seeded from (seed, name), so repeated opens yield identical
// bytes. Intended for small-to-medium corpora feeding the real grep and POS
// kernels.
func GenerateWithContent(spec Spec, seed int64) (*vfs.FS, error) {
	fs := vfs.NewFS()
	r := stats.NewRand(seed, "corpus-sizes-"+spec.Name)
	for i := 0; i < spec.NumFiles; i++ {
		name := fileName(spec, i)
		size := spec.Sizes.Sample(r)
		fileSeed := stats.SeedFor(seed, "content-"+name)
		style := spec.Style
		html := spec.HTML
		sz := int(size)
		open := func() (data []byte) {
			g := NewGenerator(style, fileSeed)
			if html {
				return g.HTML(sz)
			}
			return g.Text(sz)
		}
		f := vfs.NewContentFile(name, size, lazyBytes(open))
		if err := fs.Add(f); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// GenerateWithContentEagerCtx is GenerateWithContent with the file bytes
// materialised up front, in parallel (workers <= 0 means all CPUs). Sizes
// are still sampled from the single sequential corpus RNG stream — that
// order is part of the corpus identity — but each file's content generator
// is seeded independently from (seed, name) via stats.SeedFor, so the
// per-file byte generation fans out across the pool and the resulting
// corpus is byte-identical to the lazy form at any worker count. Intended
// for benchmark and experiment corpora that will be read many times:
// repeated opens become memory reads instead of regeneration. Per-file
// materialisation stops once ctx is done and the call returns a typed
// cancellation error.
func GenerateWithContentEagerCtx(ctx context.Context, spec Spec, seed int64, workers int) (*vfs.FS, error) {
	names := make([]string, spec.NumFiles)
	sizes := make([]int64, spec.NumFiles)
	r := stats.NewRand(seed, "corpus-sizes-"+spec.Name)
	for i := 0; i < spec.NumFiles; i++ {
		names[i] = fileName(spec, i)
		sizes[i] = spec.Sizes.Sample(r)
	}
	contents := make([][]byte, spec.NumFiles)
	err := par.New(workers).ForEachCtx(ctx, spec.NumFiles, func(i int) error {
		g := NewGenerator(spec.Style, stats.SeedFor(seed, "content-"+names[i]))
		if spec.HTML {
			contents[i] = g.HTML(int(sizes[i]))
		} else {
			contents[i] = g.Text(int(sizes[i]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fs := vfs.NewFS()
	for i := range names {
		f := vfs.BytesFile(names[i], contents[i])
		if f.Size != sizes[i] {
			return nil, fmt.Errorf("corpus: %s generated %d bytes, want %d", names[i], f.Size, sizes[i])
		}
		if err := fs.Add(f); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// lazyBytes adapts a deterministic byte producer into a vfs.Opener, caching
// nothing: every open regenerates, trading CPU for memory exactly like
// re-reading from disk would.
func lazyBytes(produce func() []byte) vfs.Opener {
	return func() io.Reader {
		return bytes.NewReader(produce())
	}
}

func fileName(spec Spec, i int) string {
	return fmt.Sprintf("%s/%07d%s", spec.Name, i, spec.Ext)
}

// SizeHistogram bins the corpus file sizes, reproducing Fig. 1. binWidth
// and cap follow the paper: 10 kB bins up to 300 kB for the HTML set, 1 kB
// bins up to 160 kB for the text set.
func SizeHistogram(fs *vfs.FS, binWidth, cap int64) (*stats.Histogram, error) {
	h, err := stats.NewHistogram(binWidth, cap)
	if err != nil {
		return nil, err
	}
	for _, f := range fs.List() {
		if err := h.Add(f.Size); err != nil {
			return nil, err
		}
	}
	return h, nil
}
