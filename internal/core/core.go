// Package core orchestrates the paper's complete workflow as a single
// pipeline, the library's primary entry point:
//
//  1. acquire a stable, well-performing instance (bonnie++ qualification, §4);
//  2. probe the application across volumes and unit file sizes (§4);
//  3. select the preferred unit file size (plateau analysis, §4);
//  4. fit performance-model candidates and keep the best (§5);
//  5. reshape the corpus to the preferred unit size (subset-sum first fit);
//  6. build a deadline-meeting, cost-minimising execution plan with the
//     residual-based deadline adjustment (§5.2);
//  7. optionally execute the plan on the simulated cloud.
//
// Each stage is also callable on its own; the pipeline only sequences them.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/perfmodel"
	"repro/internal/probe"
	"repro/internal/provision"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// Config parameterises a pipeline run. Zero values get the paper's
// defaults where they exist.
type Config struct {
	// Seed drives every stochastic component.
	Seed int64
	// App is the application cost model under study.
	App workload.App
	// InitialVolume and MaxVolume bound the §4 escalation protocol, which
	// grows the volume by probeGrowth until the runs are stable. Defaults:
	// 1 MB and 1 GB.
	InitialVolume int64
	MaxVolume     int64
	// S0 is the base unit size for probe reshaping; Multiples derives the
	// others. Defaults: 1 MB and {2, 5, 10, 50, 100}.
	S0        int64
	Multiples []int
	// DeadlineSeconds is the user deadline D: positive, finite and within
	// a time.Duration, since the run arms a timeout of D.
	DeadlineSeconds float64
}

// The paper's fixed protocol parameters. Plans are priced at the paper's
// small-instance rate (provision.NewPlanner).
const (
	// probeGrowth multiplies the probe volume between escalation steps.
	probeGrowth = 10
	// probeStableCV is the run-to-run coefficient of variation below which
	// a probe set counts as stable (§4).
	probeStableCV = 0.15
	// plateauTol is the relative tolerance for plateau membership (§4
	// analysis).
	plateauTol = 0.05
	// missProb is the accepted deadline-miss probability for the §5.2
	// adjustment.
	missProb = 0.10
)

func (c *Config) fillDefaults() {
	if c.InitialVolume == 0 {
		c.InitialVolume = 1_000_000
	}
	if c.MaxVolume == 0 {
		c.MaxVolume = 1_000_000_000
	}
	if c.S0 == 0 {
		c.S0 = 1_000_000
	}
	if c.Multiples == nil {
		c.Multiples = []int{2, 5, 10, 50, 100}
	}
}

// Result carries every artefact the pipeline produced.
type Result struct {
	// Instance is the qualified measurement instance.
	Instance *cloudsim.Instance
	// QualificationAttempts is how many instances were tried.
	QualificationAttempts int
	// ProbeSets holds all measurements, one slice per escalation volume.
	ProbeSets [][]probe.Measurement
	// PreferredUnit is the selected unit file size (0 = keep the original
	// segmentation, the POS outcome).
	PreferredUnit int64
	// Model is the best-fitting performance model at the preferred unit.
	Model perfmodel.Model
	// Candidates are all fitted model families.
	Candidates []perfmodel.Model
	// Adjustment is the §5.2 residual-based deadline derating.
	Adjustment perfmodel.Adjustment
	// ReshapedBins is the full corpus packed at the preferred unit size
	// (nil when the original segmentation was kept).
	ReshapedBins []*binpack.Bin
	// Plan is the provisioning plan for the configured deadline.
	Plan *provision.Plan
	// Complexity is the per-file complexity of a profiled run, in the
	// corpus's List order (nil for uniform corpora).
	Complexity []float64
}

// MeanComplexity returns the size-weighted mean complexity of the corpus
// files packed into bins, each read at its position (Bin.Pos) in the
// corpus's List order (1.0 when no profile was used).
func (r *Result) MeanComplexity(bins []*binpack.Bin) float64 {
	if r.Complexity == nil {
		return 1
	}
	var weighted, total float64
	for _, b := range bins {
		for j, it := range b.Items {
			c := r.Complexity[b.Pos[j]]
			if c <= 0 {
				c = 1
			}
			weighted += c * float64(it.Size)
			total += float64(it.Size)
		}
	}
	if total == 0 {
		return 1
	}
	return weighted / total
}

// Pipeline runs the stages against one cloud.
type Pipeline struct {
	Cloud  *cloudsim.Cloud
	Config Config
}

// New creates a pipeline with its own simulated cloud.
func New(cfg Config) (*Pipeline, error) {
	if cfg.App == nil {
		return nil, errs.Invalid("core: Config.App is required")
	}
	// 2^63 ns is exactly representable, so the comparison is exact; NaN
	// fails both comparisons.
	if !(cfg.DeadlineSeconds > 0 && cfg.DeadlineSeconds*float64(time.Second) < math.MaxInt64) {
		return nil, errs.Invalid("core: Config.DeadlineSeconds must be positive and fit a time.Duration, got %v", cfg.DeadlineSeconds)
	}
	cfg.fillDefaults()
	return &Pipeline{Cloud: cloudsim.New(cfg.Seed), Config: cfg}, nil
}

// ItemsFromFS converts a corpus to packable items in deterministic order.
func ItemsFromFS(fs *vfs.FS) []binpack.Item {
	files := fs.List()
	items := make([]binpack.Item, len(files))
	for i, f := range files {
		items[i] = binpack.Item{ID: f.Name, Size: f.Size}
	}
	return items
}

// RunCtx executes the full pipeline over a uniform-complexity corpus,
// with cancellation and a deadline. When
// Config.DeadlineSeconds is set, it also arms a real wall-clock
// context.WithTimeout over the whole run: a pipeline that cannot even
// finish its measurement phase inside the user deadline D has no plan
// worth executing. The returned error identifies the interrupted stage
// (errs.StageOf) and satisfies errors.Is against errs.ErrCancelled or
// errs.ErrDeadline.
func (p *Pipeline) RunCtx(ctx context.Context, corpusFS *vfs.FS) (*Result, error) {
	return p.run(ctx, corpusFS, nil)
}

// RunProfileCtx executes the pipeline over a heterogeneous-complexity
// corpus: probe measurements and plan predictions carry each file's
// complexity, so the calibration honestly reflects what the workload will
// cost (§5.2's closing observation). The profile must hold one complexity
// per corpus file, in List order. Cancellation and the armed deadline are
// RunCtx's.
func (p *Pipeline) RunProfileCtx(ctx context.Context, profile *corpus.Profile) (*Result, error) {
	if profile == nil || profile.FS == nil {
		return nil, errs.Invalid("core: nil profile")
	}
	if n := profile.FS.Len(); len(profile.Complexity) != n {
		return nil, errs.Invalid("core: profile holds %d complexities for %d files", len(profile.Complexity), n)
	}
	return p.run(ctx, profile.FS, profile.Complexity)
}

func (p *Pipeline) run(ctx context.Context, corpusFS *vfs.FS, complexity []float64) (*Result, error) {
	if p.Config.DeadlineSeconds > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx,
			time.Duration(p.Config.DeadlineSeconds*float64(time.Second)))
		defer cancel()
	}
	items := ItemsFromFS(corpusFS)
	if len(items) == 0 {
		return nil, errs.Invalid("core: empty corpus")
	}
	res := &Result{Complexity: complexity}

	// Stage 1: qualified instance (§4), in the region's first zone, where
	// ExecuteCtx launches the plan too.
	if cerr := errs.FromContext(ctx); cerr != nil {
		return nil, errs.Stage("qualification", cerr)
	}
	in, attempts, err := p.Cloud.AcquireQualifiedCtx(ctx, cloudsim.Small, p.Cloud.Region().Zones[0], 50)
	if err != nil {
		return nil, errs.Stage("qualification", err)
	}
	res.Instance = in
	res.QualificationAttempts = attempts

	// Stage 2: escalating probes (§4).
	harness := probe.NewHarness(p.Cloud, in, p.Config.App, workload.Local{})
	harness.Complexity = complexity
	protocol := &probe.Protocol{
		Runner:        harness,
		InitialVolume: p.Config.InitialVolume,
		Growth:        probeGrowth,
		MaxVolume:     p.Config.MaxVolume,
		StableCV:      probeStableCV,
		S0:            p.Config.S0,
		Multiples:     p.Config.Multiples,
		MinSets:       3, // the regression needs multiple volumes
	}
	probeRes, err := protocol.RunCtx(ctx, items)
	if err != nil {
		return nil, errs.Stage("probing", err)
	}
	if len(probeRes.Sets) == 0 {
		return nil, errs.Stage("probing", fmt.Errorf("core: probing produced no measurements"))
	}
	res.ProbeSets = probeRes.Sets

	// Stage 3: preferred unit size from the most stable (last) probe set.
	if cerr := errs.FromContext(ctx); cerr != nil {
		return nil, errs.Stage("unit-selection", cerr)
	}
	last := probeRes.Sets[len(probeRes.Sets)-1]
	unit, err := probe.PickPreferredUnit(last, plateauTol)
	if err != nil {
		return nil, errs.Stage("unit-selection", err)
	}
	res.PreferredUnit = unit

	// Stage 4: fit models on the preferred unit's measurements (§5). Every
	// individual run is a calibration point — the repeats carry the
	// residual spread the §5.2 deadline adjustment needs.
	if cerr := errs.FromContext(ctx); cerr != nil {
		return nil, errs.Stage("model-fitting", cerr)
	}
	xs, ys := probe.AllRunsPoints(probeRes.Sets, unit)
	if len(xs) < 2 {
		return nil, errs.Stage("model-fitting",
			fmt.Errorf("core: only %d calibration points at unit %d", len(xs), unit))
	}
	res.Candidates = perfmodel.FitAll(xs, ys)
	model, err := perfmodel.Best(res.Candidates)
	if err != nil {
		return nil, errs.Stage("model-fitting", err)
	}
	res.Model = model
	adj, err := perfmodel.NewAdjustment(model, xs, ys, missProb)
	if err == nil {
		res.Adjustment = adj
	}

	// Stage 5: reshape the full corpus at the preferred unit size.
	if cerr := errs.FromContext(ctx); cerr != nil {
		return nil, errs.Stage("reshaping", cerr)
	}
	planItems := items
	if unit > 0 {
		bins, err := binpack.SubsetSumFirstFit(items, unit)
		if err != nil {
			return nil, errs.Stage("reshaping", err)
		}
		if err := binpack.Verify(items, bins); err != nil {
			return nil, errs.Stage("reshaping", fmt.Errorf("core: reshaping invariant: %w", err))
		}
		res.ReshapedBins = bins
		planItems = make([]binpack.Item, len(bins))
		for i, b := range bins {
			planItems[i].Size = b.Used
		}
	}

	// Stage 6: provisioning plan with the adjusted-deadline strategy (§5.2).
	// The context check here is the last gate before the plan exists: a run
	// whose deadline already expired must abort before producing (and
	// certainly before executing) a plan.
	if cerr := errs.FromContext(ctx); cerr != nil {
		return nil, errs.Stage("planning", cerr)
	}
	planner := provision.NewPlanner(model)
	plan, err := planner.PlanAdjusted(planItems, p.Config.DeadlineSeconds, res.Adjustment)
	if err != nil {
		return nil, errs.Stage("planning", err)
	}
	res.Plan = plan
	return res, nil
}

// ExecuteCtx runs the result's plan on the pipeline's cloud (stage 7).
// Profiled runs execute at the corpus's size-weighted mean complexity.
// Cancellation is threaded through the per-bin launch/estimate loop.
func (p *Pipeline) ExecuteCtx(ctx context.Context, res *Result) (*provision.Outcome, error) {
	if res == nil || res.Plan == nil {
		return nil, errs.Invalid("core: no plan to execute")
	}
	// After reshaping, only the reshaped bins hold corpus positions.
	source := res.Plan.Bins
	if res.ReshapedBins != nil {
		source = res.ReshapedBins
	}
	return provision.ExecuteCtx(ctx, p.Cloud, res.Plan, provision.ExecuteOptions{
		App:        p.Config.App,
		Complexity: res.MeanComplexity(source),
	})
}

// ReshapeCtx is the standalone reshaping operation for real data: pack the
// corpus's files into unit files of the given size (subset-sum first fit)
// and return a new file system holding the concatenated unit files, plus
// the manifest of which inputs each unit contains. Content-backed inputs
// produce content-backed unit files whose bytes are exactly the members'
// bytes in order. Cancellation is checked between unit-file assemblies;
// the input FS is never mutated, so an aborted reshape leaves nothing to
// clean up.
func ReshapeCtx(ctx context.Context, in *vfs.FS, unitSize int64, unitPrefix string) (*vfs.FS, []*binpack.Bin, error) {
	if unitSize <= 0 {
		return nil, nil, errs.Invalid("core: unit size must be positive, got %d", unitSize)
	}
	if unitPrefix == "" {
		unitPrefix = "unit"
	}
	files := in.List()
	items := ItemsFromFS(in)
	bins, err := binpack.SubsetSumFirstFit(items, unitSize)
	if err != nil {
		return nil, nil, err
	}
	if err := binpack.Verify(items, bins); err != nil {
		return nil, nil, fmt.Errorf("core: reshape invariant: %w", err)
	}
	out := vfs.NewFS()
	for i, b := range bins {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return nil, nil, errs.Stage("reshaping", cerr)
		}
		members := make([]vfs.File, len(b.Pos))
		for j, p := range b.Pos {
			members[j] = files[p]
		}
		merged := vfs.Concat(fmt.Sprintf("%s-%06d", unitPrefix, i), members)
		if err := out.Add(merged); err != nil {
			return nil, nil, err
		}
	}
	return out, bins, nil
}
