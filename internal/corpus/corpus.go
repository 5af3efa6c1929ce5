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

	"repro/internal/errs"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// Units.
const (
	KB int64 = 1000
	MB       = 1000 * KB
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

// MaxFiles is the most files a generated corpus may hold: five and a half
// times HTML_18mil at full scale. A spec with more is refused with
// errs.ErrInvalid before anything is allocated; its names and sizes alone
// would run to gigabytes, and past 2^63 bytes a slice cannot be made.
const MaxFiles = 100_000_000

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
	return Spec{
		Name:     "HTML_18mil",
		NumFiles: numFiles(18_000_000, scale),
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
	return Spec{
		Name:     "Text_400K",
		NumFiles: numFiles(400_000, scale),
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

// numFiles is the file count of a corpus of full files at scale: at least
// one, and MaxFiles+1 for any count past MaxFiles, so that a spec too
// large to generate is refused, never wrapped around.
func numFiles(full, scale float64) int {
	switch n := full * scale; {
	case n > MaxFiles:
		return MaxFiles + 1
	case n >= 1:
		return int(n)
	}
	return 1
}

// check refuses a spec with more files than MaxFiles.
func (spec Spec) check() error {
	if spec.NumFiles > MaxFiles {
		return errs.Invalid("corpus %s would hold more than %d files", spec.Name, MaxFiles)
	}
	return nil
}

// forEachFile draws the corpus: file i's name and size, in index order,
// sizes from the single sequential RNG stream that is part of the corpus
// identity. Every Generate form gets its names and sizes here, after the
// spec's check.
func forEachFile(spec Spec, seed int64, visit func(name string, size int64) error) error {
	if err := spec.check(); err != nil {
		return err
	}
	r := stats.NewRand(seed, "corpus-sizes-"+spec.Name)
	for i := 0; i < spec.NumFiles; i++ {
		if err := visit(fileName(spec, i), spec.Sizes.Sample(r)); err != nil {
			return err
		}
	}
	return nil
}

// content produces a file's bytes from a generator seeded by (seed, name),
// so repeated calls — lazy opens, eager materialisation, any worker —
// yield identical bytes.
func content(spec Spec, seed int64, name string, size int64) []byte {
	g := NewGenerator(spec.Style, stats.SeedFor(seed, "content-"+name))
	if spec.HTML {
		return g.HTML(int(size))
	}
	return g.Text(int(size))
}

// Generate builds a metadata-only corpus: file names and sizes but no
// content. This is the cheap form used for packing and provisioning
// experiments over millions of files.
func Generate(spec Spec, seed int64) (*vfs.FS, error) {
	return generate(spec, seed, vfs.NewFile)
}

// GenerateWithContent builds a corpus whose files materialise real text (or
// HTML) deterministically on demand, caching nothing: every open
// regenerates, trading CPU for memory exactly like re-reading from disk
// would. Its files share one content source, which holds the spec and
// seed, so the corpus costs what Generate's metadata-only one costs.
func GenerateWithContent(spec Spec, seed int64) (*vfs.FS, error) {
	src := &generated{spec: spec, seed: seed}
	return generate(spec, seed, func(name string, size int64) vfs.File {
		return vfs.NewContentFile(name, size, src)
	})
}

// generated is every GenerateWithContent file's content source.
type generated struct {
	spec Spec
	seed int64
}

func (g *generated) Open(f *vfs.File) (io.Reader, error) {
	return bytes.NewReader(content(g.spec, g.seed, f.Name, f.Size)), nil
}

// generate builds an FS of file(name, size) for each file the spec draws.
func generate(spec Spec, seed int64, file func(name string, size int64) vfs.File) (*vfs.FS, error) {
	fs := vfs.NewFS()
	if err := forEachFile(spec, seed, func(name string, size int64) error { return fs.Add(file(name, size)) }); err != nil {
		return nil, err
	}
	return fs, nil
}

// GenerateWithContentEagerCtx is GenerateWithContent with the file bytes
// materialised up front, in parallel (workers <= 0 means all CPUs). Sizes
// still come from the one sequential draw, but each file's content
// generator is seeded independently, so the per-file byte generation fans
// out across the pool and the resulting corpus is byte-identical to the
// lazy form at any worker count. Intended for benchmark and experiment
// corpora that will be read many times: repeated opens become memory
// reads instead of regeneration. Per-file materialisation stops once ctx
// is done and the call returns a typed cancellation error.
func GenerateWithContentEagerCtx(ctx context.Context, spec Spec, seed int64, workers int) (*vfs.FS, error) {
	if err := spec.check(); err != nil {
		return nil, err
	}
	names := make([]string, 0, spec.NumFiles)
	sizes := make([]int64, 0, spec.NumFiles)
	_ = forEachFile(spec, seed, func(name string, size int64) error { // the visitor never fails
		names = append(names, name)
		sizes = append(sizes, size)
		return nil
	})
	contents := make([][]byte, len(names))
	err := par.New(workers).ForEachCtx(ctx, len(names), func(i int) error {
		contents[i] = content(spec, seed, names[i], sizes[i])
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
