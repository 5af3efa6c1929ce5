package core

import (
	"context"

	"repro/internal/errs"
	"repro/internal/scan"
	"repro/internal/textproc"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Measurement is the artefact of one fused scan over a content-backed
// corpus: checksums, text statistics, optional multi-pattern match counts
// and optional per-file POS complexity — all from exactly one open and
// one streaming read of every file.
type Measurement struct {
	Files int
	Bytes int64

	// Stats aggregates token/sentence/line statistics corpus-wide;
	// FileStats holds them per file in scan order.
	Stats     textproc.TextStats
	Lines     int64
	FileStats []textproc.FileStats

	// Patterns echoes MeasureOptions.Patterns; PatternTotals counts
	// corpus-wide matches per pattern in the same order, PatternFiles per
	// file, and Matches sums across patterns. Empty without patterns.
	Patterns      []string
	PatternTotals []int64
	PatternFiles  []textproc.FilePatternCount
	Matches       int64

	// Complexity maps file name to POS complexity (nil unless requested);
	// a corpus.Profile lists the same values in the corpus's List order.
	Complexity map[string]float64

	// Sums holds every file's (name, size, FNV-64a checksum) in scan
	// order — what Fingerprint folds. Two measurements with equal
	// fingerprints saw byte-identical corpora in the same order, which is
	// how the distributed engine's output is checked against a
	// single-node run.
	Sums []scan.FileSum
}

// Fingerprint folds the ordered per-file checksums into one FNV-64a
// corpus identity (scan.FingerprintSums).
func (m *Measurement) Fingerprint() uint64 { return scan.FingerprintSums(m.Sums) }

// MeasureOptions selects which kernels a fused measurement runs beyond
// the always-on checksum and text-stats pair.
type MeasureOptions struct {
	// Workers bounds the scan fan-out (0 = GOMAXPROCS).
	Workers int
	// Patterns adds a multi-pattern grep kernel (one matcher pass for all
	// patterns: bitap up to 64 pattern bytes, Aho–Corasick past that).
	Patterns []string
	// FoldCase makes the pattern match ASCII case-insensitive.
	FoldCase bool
	// Complexity gives the analyzer kernel a lexicon, producing the
	// per-file POS-complexity profile RunProfileCtx consumes.
	Complexity bool
	// Tagger optionally supplies a prebuilt tagger for the complexity
	// measurement; nil means build one on demand.
	Tagger *textproc.Tagger
}

// MeasureCtx runs one fused scan over every file of the corpus. The scan
// reads pack-backed corpora shard-sequentially; results are bit-identical
// at any worker count. Errors carry the "measure" stage and the usual
// typed sentinels. Corpora imported with vfs.ImportPackMappedCtx
// automatically take the zero-copy scan path: their sources carry raw
// views, so the kernels read borrowed windows of the mapping.
func MeasureCtx(ctx context.Context, corpusFS *vfs.FS, opts MeasureOptions) (*Measurement, error) {
	return measureSources(ctx, scan.SequentialOrder(corpusFS.List()), opts)
}

// MeasureKernels is the assembled kernel set of one fused measurement:
// the prototypes a scan folds into and the registration-ordered list the
// engine runs. The distributed engine reuses the same assembly on both
// sides of the wire — coordinator prototypes and worker forks come from
// the same constructor, which is what makes their snapshots compatible.
type MeasureKernels struct {
	Checksum *scan.Checksum
	Analyzer *textproc.StatsKernel // carries a tagger iff Complexity is requested
	Match    *textproc.MatchKernel // nil without patterns

	// List holds the kernels in registration order — the order snapshots
	// travel in and the order Merge folds them.
	List []scan.Kernel
}

// NewMeasureKernels assembles the kernel set MeasureOptions selects:
// always the per-file checksum and the analyzer kernel — with a lexicon
// when complexity is requested — and the multi-pattern match kernel when
// patterns are given.
func NewMeasureKernels(opts MeasureOptions) (*MeasureKernels, error) {
	var tagger *textproc.Tagger
	if opts.Complexity {
		if tagger = opts.Tagger; tagger == nil {
			tagger = textproc.NewTagger()
		}
	}
	mk := &MeasureKernels{Checksum: scan.NewChecksum(), Analyzer: textproc.NewAnalyzerKernel(tagger)}
	mk.List = []scan.Kernel{mk.Checksum, mk.Analyzer}

	if len(opts.Patterns) > 0 {
		var ms *textproc.MultiSearcher
		var err error
		if opts.FoldCase {
			ms, err = textproc.NewFoldedMultiSearcher(opts.Patterns)
		} else {
			ms, err = textproc.NewMultiSearcher(opts.Patterns)
		}
		if err != nil {
			return nil, err
		}
		mk.Match = textproc.NewMatchKernel(ms)
		mk.List = append(mk.List, mk.Match)
	}
	return mk, nil
}

// Measurement assembles the result artefact from the kernels'
// accumulated state after a completed scan. Per-file complexity is
// derived here, from each file's (Stats, Unknown), rather than carried in
// kernel state: the kernel and its wire format hold only integers and the
// one mean, and the derivation is a pure function of them, so it gives
// the same bits wherever the state was accumulated.
func (mk *MeasureKernels) Measurement() *Measurement {
	m := &Measurement{
		Sums:      mk.Checksum.Sums(),
		Stats:     mk.Analyzer.Total(),
		Lines:     mk.Analyzer.Lines(),
		FileStats: mk.Analyzer.Files(),
	}
	m.Files = len(m.Sums)
	for _, s := range m.Sums {
		m.Bytes += s.Size
	}
	if mk.Analyzer.Tagger() != nil {
		m.Complexity = make(map[string]float64, len(m.FileStats))
		for _, f := range m.FileStats {
			m.Complexity[f.Name] = FileComplexity(f)
		}
	}
	if mk.Match != nil {
		m.Patterns = mk.Match.Searcher().Patterns()
		m.PatternTotals = mk.Match.Totals()
		m.PatternFiles = mk.Match.Files()
		m.Matches = mk.Match.TotalMatches()
	}
	return m
}

// FileComplexity is one file's POS complexity, derived from the
// analyzer's per-file record: its statistics and its out-of-vocabulary
// share (Unknown over Words). The record must come from an analyzer that
// carried a tagger. Every complexity the repository reports goes through
// it, so the same record gives the same bits on every path.
func FileComplexity(f textproc.FileStats) float64 {
	oov := 0.0
	if f.Stats.Words > 0 {
		oov = float64(f.Unknown) / float64(f.Stats.Words)
	}
	return workload.ComplexityFromStats(f.Stats, oov)
}

// measureSources runs the fused measurement over an explicit,
// already-ordered source list: one kernel assembly, one scan.Run. Both
// Measure forms are thin wrappers over it.
func measureSources(ctx context.Context, srcs []scan.Source, opts MeasureOptions) (*Measurement, error) {
	mk, err := NewMeasureKernels(opts)
	if err != nil {
		return nil, errs.Stage("measure", err)
	}
	if err := scan.Run(ctx, srcs, scan.Options{Workers: opts.Workers}, mk.List...); err != nil {
		return nil, errs.Stage("measure", err)
	}
	return mk.Measurement(), nil
}

// MeasurePlanCtx runs the fused measurement over a prepared scan plan.
// Executing a plan's full task list is scan.Run over its Sources, so this
// is the single-node twin of the distributed engine's Measure: same plan
// type, same kernel assembly, bit-identical results.
func MeasurePlanCtx(ctx context.Context, p *scan.Plan, opts MeasureOptions) (*Measurement, error) {
	return measureSources(ctx, p.Sources, opts)
}
