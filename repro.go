// Package repro is a reproduction of "Reshaping text data for efficient
// processing on Amazon EC2" (Turcu, Foster, Nestorov; Scientific
// Programming 19, 2011): reshape corpora of small files into unit files of
// an empirically-preferred size, fit a black-box performance model from
// probes, and derive EC2 execution plans that meet a deadline at minimal
// cost under hour-granular pricing.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/core:      the end-to-end pipeline (probe → model → plan)
//   - internal/binpack:   first-fit / subset-sum packing heuristics
//   - internal/perfmodel: regression model families and deadline adjustment
//   - internal/provision: the §5 static planner and plan executor
//   - internal/cloudsim:  the deterministic EC2 simulator
//   - internal/corpus:    synthetic Newslab-like corpora
//   - internal/vfs:       the corpus file system, directory and pack imports
//   - internal/textproc:  real grep and POS-tagging kernels
//   - internal/scan:      fused streaming scan (one read per file, N kernels)
//   - internal/errs:      the typed error taxonomy
//
// Quick start:
//
//	fs, _ := repro.GenerateCorpus(repro.Text400K(0.01), 42)
//	p, _ := repro.NewPipeline(repro.PipelineConfig{
//	    Seed:            42,
//	    App:             repro.NewPOSApp(),
//	    DeadlineSeconds: 3600,
//	})
//	result, _ := p.RunCtx(ctx, fs)
//	outcome, _ := p.ExecuteCtx(ctx, result)
//
// The internal packages take a context everywhere; Reshape, Measure and
// ExecutePlan here are the only context-free conveniences.
package repro

import (
	"context"
	"io"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/experiments"
	"repro/internal/perfmodel"
	"repro/internal/provision"
	"repro/internal/textproc"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Pipeline aliases for the end-to-end workflow.
type (
	// Pipeline drives probe → model → reshape → plan → execute.
	Pipeline = core.Pipeline
	// PipelineConfig parameterises a pipeline run.
	PipelineConfig = core.Config
	// PipelineResult carries the pipeline's artefacts.
	PipelineResult = core.Result
)

// NewPipeline constructs a pipeline with its own simulated cloud.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return core.New(cfg) }

// Reshape packs a corpus's files into unit files of the given size and
// returns the merged file system plus the packing manifest.
func Reshape(in *FS, unitSize int64, unitPrefix string) (*FS, []*binpack.Bin, error) {
	return core.ReshapeCtx(context.Background(), in, unitSize, unitPrefix)
}

// Fused measurement: one open and one streaming read per corpus file
// feeds every requested kernel (checksum, text stats, multi-pattern
// match counts, POS complexity) with bit-identical results at any
// worker count. See internal/scan and DESIGN.md §8.
type (
	// Measurement is the artefact of one fused scan.
	Measurement = core.Measurement
	// MeasureOptions selects the optional kernels.
	MeasureOptions = core.MeasureOptions
)

// Measure runs one fused scan over every file of a content-backed corpus.
func Measure(corpusFS *FS, opts MeasureOptions) (*Measurement, error) {
	return core.MeasureCtx(context.Background(), corpusFS, opts)
}

// MeasureCtx is Measure with cancellation.
var MeasureCtx = core.MeasureCtx

// MeasureSourcesCtx runs the fused measurement over an explicit ordered
// source list (see vfs.Sources / scan.SequentialOrder).
var MeasureSourcesCtx = core.MeasureSourcesCtx

// Corpus construction.
type (
	// FS is the virtual file system corpora live in.
	FS = vfs.FS
	// File is one (possibly content-backed) corpus file.
	File = vfs.File
	// CorpusSpec describes a synthetic dataset.
	CorpusSpec = corpus.Spec
)

// NewFS returns an empty virtual file system.
func NewFS() *FS { return vfs.NewFS() }

// ImportDir loads a real directory tree into a virtual file system.
var ImportDir = vfs.ImportDir

// ImportPack opens pack shards into a virtual file system whose files
// stream through shared per-shard handles.
func ImportPack(sources ...string) (*FS, io.Closer, error) {
	return vfs.ImportPackCtx(context.Background(), sources...)
}

// ImportPackMapped opens pack shards memory-mapped: every imported file
// carries a zero-copy view of its bytes, so fused scans read borrowed
// windows of the mapping instead of copying through block buffers. The
// returned closer unmaps the shards and invalidates all views.
func ImportPackMapped(sources ...string) (*FS, io.Closer, error) {
	return vfs.ImportPackMappedCtx(context.Background(), sources...)
}

// HTML18Mil returns the HTML news-corpus spec at the given scale
// (1.0 = the paper's 18 million files).
var HTML18Mil = corpus.HTML18Mil

// Text400K returns the extracted-text corpus spec at the given scale
// (1.0 = the paper's 400,000 files).
var Text400K = corpus.Text400K

// GenerateCorpus builds a metadata-only synthetic corpus.
var GenerateCorpus = corpus.Generate

// GenerateCorpusWithContent builds a corpus with deterministic text bytes.
var GenerateCorpusWithContent = corpus.GenerateWithContent

// CorpusProfile pairs a corpus with per-file complexity factors, in the
// corpus's List order, for heterogeneous-complexity studies (§5.2's
// closing observation).
type CorpusProfile = corpus.Profile

// GenerateCorpusProfile builds a corpus whose files carry complexity
// factors along a gradient.
var GenerateCorpusProfile = corpus.GenerateProfile

// Complexity gradients for GenerateCorpusProfile.
type (
	// FlatComplexity is a uniform-complexity corpus.
	FlatComplexity = corpus.FlatComplexity
	// RampComplexity rises linearly across the corpus.
	RampComplexity = corpus.RampComplexity
)

// Applications.

// App is a black-box application cost model (grep or the POS tagger).
type App = workload.App

// NewGrepApp returns the calibrated I/O-bound grep model.
func NewGrepApp() App { return workload.NewGrep() }

// NewPOSApp returns the calibrated CPU/memory-bound POS-tagger model.
func NewPOSApp() App { return workload.NewPOS() }

// NewSearcher compiles a literal streaming search pattern (the real grep
// kernel, for running over content-backed corpora).
var NewSearcher = textproc.NewSearcher

// NewMultiSearcher compiles N literal patterns into one matcher — bitap
// for up to 64 pattern bytes, an Aho–Corasick automaton past that — so
// counting all of them costs a single pass over the bytes.
var NewMultiSearcher = textproc.NewMultiSearcher

// NewFoldedMultiSearcher is NewMultiSearcher with ASCII case folding.
var NewFoldedMultiSearcher = textproc.NewFoldedMultiSearcher

// NewTagger builds the real lexicon-driven POS tagger.
var NewTagger = textproc.NewTagger

// ExtractHTMLText strips markup from HTML, the operation that derived the
// paper's text corpus from its HTML corpus.
var ExtractHTMLText = textproc.ExtractText

// ExtractCorpus derives a text corpus from an HTML corpus file-by-file.
var ExtractCorpus = textproc.ExtractFS

// Modeling and planning.
type (
	// Model is a fitted execution-time predictor.
	Model = perfmodel.Model
	// Plan is a static provisioning plan.
	Plan = provision.Plan
	// Planner builds plans from a model and pricing.
	Planner = provision.Planner
	// Cloud is the simulated EC2 region.
	Cloud = cloudsim.Cloud
)

// NewCloud creates a deterministic simulated cloud.
var NewCloud = cloudsim.New

// NewPlanner creates a planner at the paper's small-instance rate.
var NewPlanner = provision.NewPlanner

// ExecutePlan runs a plan on a simulated cloud.
func ExecutePlan(c *Cloud, plan *Plan, opts provision.ExecuteOptions) (*provision.Outcome, error) {
	return provision.ExecuteCtx(context.Background(), c, plan, opts)
}

// Error taxonomy (internal/errs). Every layer maps its failures onto
// these sentinels, so callers branch with errors.Is instead of matching
// message strings; StageError carries which pipeline stage died.
var (
	// ErrCancelled marks work interrupted by the caller's context.
	ErrCancelled = errs.ErrCancelled
	// ErrDeadline marks work stopped by an expired wall-clock deadline
	// (DeadlineSeconds arms one around the whole pipeline run).
	ErrDeadline = errs.ErrDeadline
	// ErrCorrupt marks stored data failing its checksum or declared size.
	ErrCorrupt = errs.ErrCorrupt
	// ErrNotFound marks a missing file or pack member.
	ErrNotFound = errs.ErrNotFound
	// ErrInvalid marks a rejected argument or configuration.
	ErrInvalid = errs.ErrInvalid
)

// StageError attributes an error to a pipeline stage (and optionally a
// file); retrieve it with errors.As, or just the stage name via StageOf.
type StageError = errs.StageError

// StageOf names the outermost pipeline stage an error passed through
// ("probing", "planning", "execution", …), or "" if none is recorded.
func StageOf(err error) string { return errs.StageOf(err) }

// IsCancellation reports whether err stems from context cancellation or
// an expired deadline (as opposed to a genuine task failure).
func IsCancellation(err error) bool { return errs.IsCancellation(err) }

// Experiments.

// RunExperiment regenerates one of the paper's tables or figures by ID
// (fig1a … fig9c, eq12, eq34, complexity, switchcalc, costfn).
func RunExperiment(ctx context.Context, id string, cfg experiments.Config) (*experiments.Report, error) {
	d, ok := experiments.Lookup(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return d(ctx, cfg)
}

// ExperimentConfig parameterises experiment reproduction.
type ExperimentConfig = experiments.Config

// ExperimentReport is a regenerated table/figure.
type ExperimentReport = experiments.Report

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "repro: unknown experiment " + string(e)
}
