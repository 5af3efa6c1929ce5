// Package workload models the virtual-time cost of the paper's two
// applications — grep and Stanford POS tagging — when run over unit files
// on simulated EC2 instances. The planner and probe layers treat the
// applications as black boxes, exactly as the paper does; this package is
// where the black boxes' true (hidden) behaviour lives.
//
// The cost shapes are calibrated to the paper's published numbers:
//
//   - grep is I/O-bound: a per-file open overhead dominates small files
//     (the 5.6x improvement of Fig. 6 when moving from few-kB files to
//     100 MB units), streaming runs at the storage bandwidth (Eq. (1)'s
//     1.324e-8 s/byte ≈ 75 MB/s on a good instance), and beyond ~2 GB units
//     a mild buffering penalty closes the Fig. 4 plateau.
//   - POS tagging is CPU/memory-bound: cost is per byte (Eq. (3)'s
//     0.865e-4 s/kB ≈ 86.5 µs/byte on 1 ECU), scaled by text complexity
//     (the Dubliners vs. Agnes Grey factor-2, §5.2), with a pronounced
//     degradation for large unit files (Fig. 7: "the original level of
//     segmentation fairs the best ... memory bound").
package workload

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/par"
	"repro/internal/textproc"
)

// Item is one unit file presented to an application: its size plus the
// linguistic complexity of its content (1.0 = nominal news prose).
type Item struct {
	Size       int64
	Complexity float64
}

// NewItem returns an Item with nominal complexity.
func NewItem(size int64) Item { return Item{Size: size, Complexity: 1} }

// Items converts a size list to nominal-complexity items.
func Items(sizes []int64) []Item {
	out := make([]Item, len(sizes))
	for i, s := range sizes {
		out[i] = NewItem(s)
	}
	return out
}

// Storage abstracts where the input data lives: an EBS volume (placement-
// sensitive bandwidth) or instance-local storage.
type Storage interface {
	// ReadMBps returns the sequential read bandwidth the instance sees for
	// the dataset identified by key.
	ReadMBps(in *cloudsim.Instance, key string) float64
}

// Local is instance-local (ephemeral) storage: bandwidth is the instance's
// own sequential read speed, with no placement effects.
type Local struct{}

// ReadMBps implements Storage.
func (Local) ReadMBps(in *cloudsim.Instance, _ string) float64 {
	if in == nil {
		return 0
	}
	return in.Quality.SeqReadMBps
}

// App is the simulated cost model of a black-box application.
type App interface {
	// Name identifies the application.
	Name() string
	// Startup is the fixed per-run cost (process launch, model load).
	Startup(in *cloudsim.Instance) time.Duration
	// PerFile is the fixed per-unit-file overhead (open/close, dispatch).
	PerFile(in *cloudsim.Instance) time.Duration
	// Process is the size- and content-dependent cost of one unit file when
	// reading at readMBps. Implementations must be pure (no shared mutable
	// state, no RNG draws): Estimate evaluates items concurrently.
	Process(it Item, readMBps float64, in *cloudsim.Instance) time.Duration
}

func secs(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Grep is the I/O-bound search application (GNU grep 2.5.1 in the paper),
// in the paper's worst-case usage scenario: a simple dictionary-word
// pattern that never matches, so the whole input is always traversed and
// no output is generated.
type Grep struct {
	// OpenOverheadMS is the nominal per-file overhead in milliseconds on a
	// 1-ECU instance (file open, metadata, first-block seek).
	OpenOverheadMS float64
	// ScanMBps is the CPU-side scan speed on 1 ECU; the effective rate is
	// the harmonic combination with storage bandwidth.
	ScanMBps float64
	// LargeUnitGB is the unit size beyond which buffering degrades
	// throughput (the right edge of the Fig. 4 plateau).
	LargeUnitGB float64
}

// NewGrep returns the calibrated grep model in the paper's worst-case
// configuration. OpenOverheadMS is set so that the HTML corpus's ~50 kB
// original files run 5.6x slower than 100 MB units (Fig. 6) at nominal EBS
// bandwidth.
func NewGrep() *Grep {
	return &Grep{
		OpenOverheadMS: 3.45,
		ScanMBps:       400,
		LargeUnitGB:    2,
	}
}

// Name implements App.
func (g *Grep) Name() string { return "grep" }

// Startup implements App: a process exec is cheap.
func (g *Grep) Startup(in *cloudsim.Instance) time.Duration {
	return secs(0.05 / cpuOf(in))
}

// PerFile implements App.
func (g *Grep) PerFile(in *cloudsim.Instance) time.Duration {
	return secs(g.OpenOverheadMS / 1000 / cpuOf(in))
}

// Process implements App: streaming at the harmonic mean of storage and
// scan bandwidth, with the large-unit penalty past the plateau edge.
func (g *Grep) Process(it Item, readMBps float64, in *cloudsim.Instance) time.Duration {
	if it.Size <= 0 {
		return 0
	}
	scan := g.ScanMBps * cpuOf(in)
	if readMBps <= 0 {
		readMBps = 1
	}
	effective := 1 / (1/readMBps + 1/scan)
	sizeGB := float64(it.Size) / 1e9
	if g.LargeUnitGB > 0 && sizeGB > g.LargeUnitGB {
		// Mild logarithmic degradation: each doubling beyond the plateau
		// edge costs ~8%.
		effective /= 1 + 0.08*math.Log2(sizeGB/g.LargeUnitGB)
	}
	return cloudsim.EstimateTransfer(it.Size, effective)
}

// POS is the CPU/memory-bound Stanford POS tagger model with the
// left3words configuration.
type POS struct {
	// PerByteUS is the nominal tagging cost in microseconds per byte on
	// 1 ECU (Eq. (3): 0.865e-4 s/kB ≈ 86.5 µs/byte).
	PerByteUS float64
	// JVMStartupS is the cost of starting a tagger process and loading the
	// model.
	JVMStartupS float64
	// Wrapper mirrors the paper's batch wrapper: when true, the JVM starts
	// once per run; when false, once per file (the paper's motivation for
	// writing the wrapper, and our ablation).
	Wrapper bool
	// MemSoftKB is the unit size (kB) beyond which memory pressure begins;
	// degradation grows logarithmically past it ("the degradation for
	// working with large files is pronounced", §5.2).
	MemSoftKB float64
	// MemPenaltyPerDoubling is the extra relative cost per size doubling
	// past MemSoftKB.
	MemPenaltyPerDoubling float64
}

// NewPOS returns the calibrated tagger model with the batch wrapper on.
func NewPOS() *POS {
	return &POS{
		PerByteUS:             86.5,
		JVMStartupS:           2.5,
		Wrapper:               true,
		MemSoftKB:             4,
		MemPenaltyPerDoubling: 0.09,
	}
}

// Name implements App.
func (p *POS) Name() string { return "pos-tagger" }

// Startup implements App.
func (p *POS) Startup(in *cloudsim.Instance) time.Duration {
	if !p.Wrapper {
		return 0 // paid per file instead
	}
	return secs(p.JVMStartupS / cpuOf(in))
}

// PerFile implements App.
func (p *POS) PerFile(in *cloudsim.Instance) time.Duration {
	base := 0.0002 // dispatch bookkeeping
	if !p.Wrapper {
		base += p.JVMStartupS
	}
	return secs(base / cpuOf(in))
}

// Process implements App: per-byte CPU cost, scaled by complexity and the
// memory-pressure factor for large unit files. Storage bandwidth is
// irrelevant: the tagger is never I/O-bound.
func (p *POS) Process(it Item, _ float64, in *cloudsim.Instance) time.Duration {
	if it.Size <= 0 {
		return 0
	}
	complexity := it.Complexity
	if complexity <= 0 {
		complexity = 1
	}
	seconds := float64(it.Size) * p.PerByteUS / 1e6 * complexity / cpuOf(in)
	sizeKB := float64(it.Size) / 1000
	if p.MemSoftKB > 0 && sizeKB > p.MemSoftKB {
		seconds *= 1 + p.MemPenaltyPerDoubling*math.Log2(sizeKB/p.MemSoftKB)
	}
	return secs(seconds)
}

func cpuOf(in *cloudsim.Instance) float64 {
	if in == nil {
		return 1
	}
	f := in.Type.ComputeUnits * in.Quality.CPUFactor
	if f <= 0 {
		return 1
	}
	return f
}

// ComplexityFromStats maps measured text statistics to the complexity
// factor the POS model consumes. Calibrated so nominal news prose (mean
// sentence ≈12 words, ~3% OOV) sits at 1.0 and the ComplexStyle preset
// lands near 2x PlainStyle — the paper's Dubliners/Agnes Grey observation
// that "average sentence length is an important parameter for POS tagging".
func ComplexityFromStats(st textproc.TextStats, oovRate float64) float64 {
	meanLen := st.MeanSentence
	if meanLen <= 0 {
		meanLen = 12
	}
	if oovRate < 0 {
		oovRate = 0
	}
	c := math.Pow(meanLen/12.0, 0.75) * (1 + 3.5*oovRate)
	if c < 0.1 {
		c = 0.1
	}
	return c
}

// ComplexityOf analyses real text with the real tagger and returns its
// complexity factor.
func ComplexityOf(text []byte, tagger *textproc.Tagger) float64 {
	st := textproc.Analyze(text)
	oov := 0.0
	if tagger != nil && st.Words > 0 {
		_, res := tagger.TagText(text)
		oov = float64(res.Unknown) / float64(res.Words)
	}
	return ComplexityFromStats(st, oov)
}

// NewStatsComplexityKernel returns the analyzer kernel over the tagger's
// lexicon. It exists for benchmark/probes.go, which names it; everything
// else calls textproc.NewAnalyzerKernel.
func NewStatsComplexityKernel(t *textproc.Tagger) *textproc.StatsKernel {
	return textproc.NewAnalyzerKernel(t)
}

// parThreshold is the item count above which Estimate fans the per-item
// cost sum out across CPUs; below it the pool overhead exceeds the win.
const parThreshold = 2048

// EstimateCtx computes the duration an application run would take on the
// instance without advancing any clock. The measurement includes the
// instance's noise: processing time takes narrow multiplicative noise,
// while the startup overhead takes wide noise — so short runs on small data
// show the large relative stddev the paper reports for 1 MB probes
// (Fig. 3). Each call consumes draws from the instance's noise stream, so
// repeated estimates vary like repeated real measurements.
//
// The RNG draw order is part of the observable behaviour and is fixed:
// storage bandwidth first (Local and *cloudsim.Volume draw nothing), then
// setup noise, then the per-item cost sum — which consumes no randomness
// and whose Duration (integer) partials are summed in chunk order, so
// fanning it out over the pool is bit-identical to the serial loop — and
// finally the work noise.
//
// The per-item cost sum stops dispatching chunks once ctx is done and the
// call returns a typed cancellation error; the RNG draw order above is
// unaffected by the context.
func EstimateCtx(ctx context.Context, in *cloudsim.Instance, app App, items []Item, st Storage, datasetKey string) (time.Duration, error) {
	if in.State() != cloudsim.Running {
		return 0, fmt.Errorf("workload: instance %s is %s, not running", in.ID, in.State())
	}
	if st == nil {
		st = Local{}
	}
	readMBps := st.ReadMBps(in, datasetKey)
	setup := time.Duration(float64(app.Startup(in)) * in.SetupNoiseFactor())
	perFile := app.PerFile(in)
	pool := par.Default()
	if len(items) < parThreshold {
		pool = par.New(1)
	}
	sum, err := pool.SumChunksCtx(ctx, len(items), func(lo, hi int) (int64, error) {
		var s time.Duration
		for _, it := range items[lo:hi] {
			if it.Size < 0 {
				return 0, fmt.Errorf("workload: negative item size %d", it.Size)
			}
			s += perFile + app.Process(it, readMBps, in)
		}
		return int64(s), nil
	})
	if err != nil {
		return 0, err
	}
	work := time.Duration(float64(time.Duration(sum)) * in.NoiseFactor())
	return setup + work, nil
}

// RunCtx executes an application over unit files on an instance,
// consuming virtual time on the cloud's clock, and returns the measured
// elapsed duration. A run aborted by ctx returns the typed cancellation
// error without advancing the virtual clock.
func RunCtx(ctx context.Context, c *cloudsim.Cloud, in *cloudsim.Instance, app App, items []Item, st Storage, datasetKey string) (time.Duration, error) {
	elapsed, err := EstimateCtx(ctx, in, app, items, st, datasetKey)
	if err != nil {
		return 0, err
	}
	if err := c.Clock().Advance(elapsed); err != nil {
		return 0, err
	}
	return elapsed, nil
}
