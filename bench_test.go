package repro

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (regenerating the same rows/series the paper
// reports), plus micro-benchmarks and ablations for the design choices
// DESIGN.md calls out. Benchmarks reporting figure metrics expose them via
// b.ReportMetric so `go test -bench` output carries the reproduced shape
// numbers (who wins, by what factor).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/provision"
	"repro/internal/scan"
	"repro/internal/scan/kerneltest"
	"repro/internal/stats"
	"repro/internal/textproc"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// benchExperiment runs a figure driver once per iteration and reports the
// named metrics from its Values.
func benchExperiment(b *testing.B, id string, metrics ...string) {
	b.Helper()
	driver, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("no driver %s", id)
	}
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = driver(context.Background(), experiments.Config{Seed: 2011})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Values[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

// --- Figures and tables, in the paper's order. ---

func BenchmarkFig1aHTMLDistribution(b *testing.B) {
	benchExperiment(b, "fig1a", "frac_below_50kB", "mean_bytes")
}

func BenchmarkFig1bTextDistribution(b *testing.B) {
	benchExperiment(b, "fig1b", "frac_below_1kB", "frac_below_5kB")
}

func BenchmarkFig2ShapeAnalysis(b *testing.B) {
	benchExperiment(b, "fig2", "convex_prefers_new_instances", "concave_prefers_packing")
}

func BenchmarkFig3SmallProbeInstability(b *testing.B) {
	benchExperiment(b, "fig3", "max_cv")
}

func BenchmarkFig4Plateau(b *testing.B) {
	benchExperiment(b, "fig4", "plateau_ratio_10MB_2GB", "orig_vs_plateau")
}

func BenchmarkFig5EBSSpikes(b *testing.B) {
	benchExperiment(b, "fig5", "spikes", "plateau_spread")
}

func BenchmarkEq12GrepFits(b *testing.B) {
	benchExperiment(b, "eq12", "eq1_slope_s_per_byte", "eq1_r2")
}

func BenchmarkFig6HundredGB(b *testing.B) {
	benchExperiment(b, "fig6", "improvement_vs_original", "underestimate_frac")
}

func BenchmarkFig7POSUnits(b *testing.B) {
	benchExperiment(b, "fig7", "large_unit_degradation", "preferred_unit")
}

func BenchmarkEq34POSFits(b *testing.B) {
	benchExperiment(b, "eq34", "eq3_slope_s_per_byte", "adjustment_a")
}

func BenchmarkFig8aFirstFitSchedule(b *testing.B) {
	benchExperiment(b, "fig8a", "instances", "missed")
}

func BenchmarkFig8bUniformSchedule(b *testing.B) {
	benchExperiment(b, "fig8b", "instances", "missed")
}

func BenchmarkFig8cRefitSchedule(b *testing.B) {
	benchExperiment(b, "fig8c", "instances", "missed")
}

func BenchmarkFig8dAdjustedSchedule(b *testing.B) {
	benchExperiment(b, "fig8d", "instances", "missed")
}

func BenchmarkFig9aTwoHourSchedule(b *testing.B) {
	benchExperiment(b, "fig9a", "instances", "instance_hours")
}

func BenchmarkFig9bTwoHourRefit(b *testing.B) {
	benchExperiment(b, "fig9b", "instances", "missed")
}

func BenchmarkFig9cTwoHourAdjusted(b *testing.B) {
	benchExperiment(b, "fig9c", "instance_hours", "missed")
}

func BenchmarkComplexityBooks(b *testing.B) {
	benchExperiment(b, "complexity", "ratio")
}

func BenchmarkSwitchCalc(b *testing.B) {
	benchExperiment(b, "switchcalc", "switch_gain_gb")
}

func BenchmarkCostFunction(b *testing.B) {
	benchExperiment(b, "costfn", "subhour_premium")
}

// --- Micro-benchmarks of the underlying kernels. ---

func benchItems(n int, seed int64) []binpack.Item {
	dist := corpus.Text400K(1).Sizes
	r := stats.NewRand(seed, "bench-items")
	items := make([]binpack.Item, n)
	for i := range items {
		items[i] = binpack.Item{ID: fmt.Sprintf("f%06d", i), Size: dist.Sample(r)}
	}
	return items
}

func BenchmarkFirstFit10k(b *testing.B) {
	items := benchItems(10_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binpack.FirstFit(items, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstFitDecreasing10k(b *testing.B) {
	items := benchItems(10_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binpack.FirstFitDecreasing(items, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetSumFirstFit10k(b *testing.B) {
	items := benchItems(10_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binpack.SubsetSumFirstFit(items, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeastLoaded10k(b *testing.B) {
	items := benchItems(10_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binpack.LeastLoaded(items, 27); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPOSTagger100kB(b *testing.B) {
	g := corpus.NewGenerator(corpus.NewsStyle(), 4)
	text := g.Text(100_000)
	tagger := textproc.NewTagger()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tagger.TagText(text)
	}
}

func BenchmarkTokenize100kB(b *testing.B) {
	g := corpus.NewGenerator(corpus.NewsStyle(), 5)
	text := g.Text(100_000)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textproc.Tokenize(text)
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
		if _, err := vfs.BuildManifestCtx(context.Background(), fs); err != nil {
			b.Fatal(err)
		}
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
		merged, _, err := core.ReshapeCtx(ctx, in, 1<<20, "unit")
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

func BenchmarkTextGeneration100kB(b *testing.B) {
	b.SetBytes(100_000)
	for i := 0; i < b.N; i++ {
		g := corpus.NewGenerator(corpus.NewsStyle(), int64(i))
		g.Text(100_000)
	}
}

func BenchmarkModelFitAll(b *testing.B) {
	var xs, ys []float64
	for v := 1e6; v <= 1e10; v *= 2 {
		xs = append(xs, v)
		ys = append(ys, 0.3+8.65e-5*v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perfmodel.FitAll(xs, ys)
	}
}

// --- Ablations for DESIGN.md's design choices. ---

// AblationPackingQuality compares bins used by the three packing
// heuristics at the probe unit size (the paper chose subset-sum first fit
// for probe construction).
func BenchmarkAblationPackingQuality(b *testing.B) {
	// Item sizes comparable to the bin capacity, where heuristics differ.
	r := stats.NewRand(2, "ablation-packing")
	items := make([]binpack.Item, 20_000)
	for i := range items {
		items[i] = binpack.Item{ID: fmt.Sprintf("p%06d", i), Size: r.Int63n(90_000) + 10_000}
	}
	var ff, ffd, ss int
	for i := 0; i < b.N; i++ {
		a, err := binpack.FirstFit(items, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		c, err := binpack.FirstFitDecreasing(items, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		d, err := binpack.SubsetSumFirstFit(items, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		ff, ffd, ss = len(a), len(c), len(d)
	}
	b.ReportMetric(float64(ff), "bins_firstfit")
	b.ReportMetric(float64(ffd), "bins_ffd")
	b.ReportMetric(float64(ss), "bins_subsetsum")
}

// AblationWrapper quantifies the paper's batch-wrapper decision for the
// POS tagger: one JVM per run versus one per file.
func BenchmarkAblationPOSWrapper(b *testing.B) {
	wrapped := workload.NewPOS()
	unwrapped := workload.NewPOS()
	unwrapped.Wrapper = false
	items := workload.Items(make([]int64, 1000))
	for i := range items {
		items[i] = workload.NewItem(2000)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		cost := func(p *workload.POS) float64 {
			total := p.Startup(nil).Seconds()
			for _, it := range items {
				total += p.PerFile(nil).Seconds() + p.Process(it, 80, nil).Seconds()
			}
			return total
		}
		ratio = cost(unwrapped) / cost(wrapped)
	}
	b.ReportMetric(ratio, "no_wrapper_slowdown_x")
}

// AblationUniformVsFirstFit quantifies the Fig. 8(b) design choice at the
// planning level: the spread of predicted per-instance times.
func BenchmarkAblationUniformVsFirstFit(b *testing.B) {
	items := benchItems(50_000, 3)
	m, err := perfmodel.FitAffine([]float64{0, 1e9}, []float64{0.327, 0.327 + 0.865e-4*1e9})
	if err != nil {
		b.Fatal(err)
	}
	pl := provision.NewPlanner(m)
	var spreadFF, spreadUni float64
	for i := 0; i < b.N; i++ {
		ff, err := pl.PlanDeadline(items, 3600, provision.FirstFitOriginal)
		if err != nil {
			b.Fatal(err)
		}
		uni, err := pl.PlanDeadline(items, 3600, provision.UniformBins)
		if err != nil {
			b.Fatal(err)
		}
		spread := func(p *provision.Plan) float64 {
			s := stats.Summarize(p.Predicted)
			return s.Max - s.Min
		}
		spreadFF, spreadUni = spread(ff), spread(uni)
	}
	b.ReportMetric(spreadFF, "spread_firstfit_s")
	b.ReportMetric(spreadUni, "spread_uniform_s")
}

// AblationQualification measures the value of the §4 bonnie++ loop: miss
// counts with and without instance qualification on a heterogeneous cloud.
func BenchmarkAblationQualification(b *testing.B) {
	items := benchItems(20_000, 4)
	m, err := perfmodel.FitAffine([]float64{0, 1e9}, []float64{0.327, 0.327 + 0.865e-4*1e9})
	if err != nil {
		b.Fatal(err)
	}
	pl := provision.NewPlanner(m)
	// A deadline that leaves the bins nearly full, so slow instances from
	// the quality lottery genuinely miss it.
	deadline := 0.327 + 0.865e-4*float64(binpack.TotalSize(items))/2*1.18
	plan, err := pl.PlanDeadline(items, deadline, provision.UniformBins)
	if err != nil {
		b.Fatal(err)
	}
	var missLottery, missQualified float64
	for i := 0; i < b.N; i++ {
		lot, err := provision.ExecuteCtx(context.Background(), cloudsim.New(int64(i)), plan, provision.ExecuteOptions{App: workload.NewPOS()})
		if err != nil {
			b.Fatal(err)
		}
		qual, err := provision.ExecuteCtx(context.Background(), cloudsim.New(int64(i)), plan, provision.ExecuteOptions{App: workload.NewPOS(), Qualify: true})
		if err != nil {
			b.Fatal(err)
		}
		missLottery += float64(lot.Missed)
		missQualified += float64(qual.Missed)
	}
	b.ReportMetric(missLottery/float64(b.N), "mean_missed_lottery")
	b.ReportMetric(missQualified/float64(b.N), "mean_missed_qualified")
}

// AblationMergeDerivation quantifies the §4 construction trick: building
// the probe family once at s₀ and merging bins for the multiples, versus
// re-running the subset-sum packing at every unit size.
func BenchmarkAblationMergeDerivation(b *testing.B) {
	items := benchItems(20_000, 5)
	multiples := []int{2, 5, 10, 50, 100}
	b.Run("merge-derived", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base, err := binpack.SubsetSumFirstFit(items, 100_000)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range multiples {
				if _, err := binpack.MergeGroups(base, k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("repack-per-unit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, unit := range []int64{100_000, 200_000, 500_000, 1_000_000, 5_000_000, 10_000_000} {
				if _, err := binpack.SubsetSumFirstFit(items, unit); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Heuristic head-to-head at capacity-scale item sizes.
func BenchmarkHeuristicComparison(b *testing.B) {
	r := stats.NewRand(6, "bench-heuristics")
	items := make([]binpack.Item, 5000)
	for i := range items {
		items[i] = binpack.Item{ID: fmt.Sprintf("h%05d", i), Size: r.Int63n(90_000) + 10_000}
	}
	packers := []struct {
		name string
		pack func([]binpack.Item, int64) ([]*binpack.Bin, error)
	}{
		{"next-fit", binpack.NextFit},
		{"first-fit", binpack.FirstFit},
		{"best-fit", binpack.BestFit},
		{"ffd", binpack.FirstFitDecreasing},
		{"bfd", binpack.BestFitDecreasing},
		{"subset-sum", binpack.SubsetSumFirstFit},
	}
	for _, p := range packers {
		p := p
		b.Run(p.name, func(b *testing.B) {
			var bins int
			for i := 0; i < b.N; i++ {
				out, err := p.pack(items, 100_000)
				if err != nil {
					b.Fatal(err)
				}
				bins = len(out)
			}
			b.ReportMetric(float64(bins), "bins")
		})
	}
}

// Retrieval-time experiment as a benchmark (the §1 output claim).
func BenchmarkRetrievalSegmentation(b *testing.B) {
	benchExperiment(b, "retrieval", "speedup_2M_to_100_files")
}

// --- Per-kernel compute: one kernel, one 1 MB block, no engine. ---
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
				srcs := []scan.Source{{
					Name: "kernel-1mb", Size: int64(len(text)),
					Raw: scan.BytesFunc(func() ([]byte, error) { return text, nil }),
				}}
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
