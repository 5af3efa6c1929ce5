// Package repro is a reproduction of "Reshaping text data for efficient
// processing on Amazon EC2" (Turcu, Foster, Nestorov; Scientific
// Programming 19, 2011): reshape corpora of small files into unit files of
// an empirically-preferred size, fit a black-box performance model from
// probes, and derive EC2 execution plans that meet a deadline at minimal
// cost under hour-granular pricing.
//
// The package is a thin facade over the implementation packages:
//
//   - internal/core:     the end-to-end pipeline (probe → model → plan),
//     reshaping and the fused measurement scan
//   - internal/corpus:   synthetic Newslab-like corpora
//   - internal/vfs:      the corpus file system
//   - internal/workload: the grep and POS-tagger cost models
//   - internal/errs:     the typed error taxonomy
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
// The internal packages take a context everywhere; Reshape here is the
// only context-free convenience.
package repro

import (
	"context"

	"repro/internal/binpack"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Pipeline aliases for the end-to-end workflow.
type (
	// Pipeline drives probe → model → reshape → plan → execute.
	Pipeline = core.Pipeline
	// PipelineConfig parameterises a pipeline run.
	PipelineConfig = core.Config
)

// NewPipeline constructs a pipeline with its own simulated cloud.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) { return core.New(cfg) }

// FS is the virtual file system corpora live in.
type FS = vfs.FS

// Reshape packs a corpus's files into unit files of the given size and
// returns the merged file system plus the packing manifest.
func Reshape(in *FS, unitSize int64, unitPrefix string) (*FS, []*binpack.Bin, error) {
	return core.ReshapeCtx(context.Background(), in, unitSize, unitPrefix)
}

// MeasureOptions selects the optional kernels of a fused measurement: one
// open and one streaming read per corpus file feeds every requested kernel
// (checksum, text stats, multi-pattern match counts, POS complexity) with
// bit-identical results at any worker count. See internal/scan and
// DESIGN.md §8.
type MeasureOptions = core.MeasureOptions

// MeasureCtx runs one fused scan over every file of a content-backed
// corpus.
var MeasureCtx = core.MeasureCtx

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

// NewGrepApp returns the calibrated I/O-bound grep model.
func NewGrepApp() workload.App { return workload.NewGrep() }

// NewPOSApp returns the calibrated CPU/memory-bound POS-tagger model.
func NewPOSApp() workload.App { return workload.NewPOS() }

// Error taxonomy (internal/errs). Every layer maps its failures onto
// typed sentinels, so callers branch with errors.Is instead of matching
// message strings.
var (
	// ErrCancelled marks work interrupted by the caller's context.
	ErrCancelled = errs.ErrCancelled
	// ErrDeadline marks work stopped by an expired wall-clock deadline
	// (DeadlineSeconds arms one around the whole pipeline run).
	ErrDeadline = errs.ErrDeadline
)

// StageOf names the outermost pipeline stage an error passed through
// ("probing", "planning", "execution", …), or "" if none is recorded.
func StageOf(err error) string { return errs.StageOf(err) }
