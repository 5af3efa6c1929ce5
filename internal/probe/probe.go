// Package probe implements the paper's §4 measurement protocol: construct
// test probes from the original data set by varying two dimensions — total
// volume and unit file size — run each probe five times on a qualified
// instance, track means and standard deviations, escalate the volume while
// measurements are unstable, and finally select a preferred unit file size
// from the most stable probe sets.
package probe

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/errs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Measurement is the outcome of repeatedly running the application on one
// probe (§4: "All performance measurements are repeated 5 times and the
// average and standard deviation are noted").
type Measurement struct {
	Volume   int64 // total probe volume in bytes
	UnitSize int64 // unit file size in bytes; 0 = original segmentation
	Files    int   // number of unit files in the probe
	Runs     []float64
	Mean     float64
	StdDev   float64
}

// CV returns the coefficient of variation of the runs.
func (m Measurement) CV() float64 {
	return stats.Summary{Mean: m.Mean, StdDev: m.StdDev}.CV()
}

func (m Measurement) String() string {
	unit := "orig"
	if m.UnitSize > 0 {
		unit = fmt.Sprintf("%d", m.UnitSize)
	}
	return fmt.Sprintf("V=%d unit=%s files=%d mean=%.3fs sd=%.3fs", m.Volume, unit, m.Files, m.Mean, m.StdDev)
}

// Set is a family of probes with a common volume: the original segmentation
// P^V_orig plus reshaped probes P^V_{s0}..P^V_{sn}.
type Set struct {
	Volume   int64
	Original []workload.Item
	// ByUnit maps unit file size to the probe's unit files. The unit sizes
	// are s0 and its configured multiples, derived by merging bins without
	// re-running the packing (§4's construction).
	ByUnit map[int64][]workload.Item
}

// UnitSizes returns the reshaped unit sizes in ascending order.
func (s *Set) UnitSizes() []int64 {
	out := make([]int64, 0, len(s.ByUnit))
	for u := range s.ByUnit {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SelectPrefix takes files (in their given order) until the cumulative size
// reaches volume, returning the selected prefix. It errors if the corpus is
// too small.
func SelectPrefix(files []binpack.Item, volume int64) ([]binpack.Item, error) {
	if volume <= 0 {
		return nil, fmt.Errorf("probe: volume must be positive, got %d", volume)
	}
	var total int64
	for i, f := range files {
		total += f.Size
		if total >= volume {
			return files[:i+1], nil
		}
	}
	return nil, fmt.Errorf("probe: corpus holds %d bytes, need %d", total, volume)
}

// BuildSet constructs the probe family for one volume: the original
// segmentation plus reshaped probes at s0 and each multiple k·s0. The
// subset-sum first-fit packing runs once at s0; larger unit sizes are
// derived by merging bins (§4: "we perform the bin packing once ... and
// then directly derive the remaining probes").
//
// s0 should exceed the largest file in the selection, as the paper
// prescribes; if it does not, oversized files become their own unit files.
//
// cx prices a heterogeneous corpus: cx[i] is files[i]'s complexity, probe
// items carry it, and merged unit files the size-weighted mean of their
// members'. A nil cx means uniform complexity 1.
func BuildSet(files []binpack.Item, volume, s0 int64, multiples []int, cx []float64) (*Set, error) {
	selection, err := SelectPrefix(files, volume)
	if err != nil {
		return nil, err
	}
	if s0 <= 0 {
		return nil, fmt.Errorf("probe: s0 must be positive, got %d", s0)
	}
	set := &Set{
		Volume:   volume,
		ByUnit:   make(map[int64][]workload.Item),
		Original: ItemsWithComplexity(selection, cx),
	}
	baseBins, err := binpack.SubsetSumFirstFit(selection, s0)
	if err != nil {
		return nil, err
	}
	if err := binpack.Verify(selection, baseBins); err != nil {
		return nil, fmt.Errorf("probe: packing invariant violated: %w", err)
	}
	set.ByUnit[s0] = BinsToItemsWithComplexity(baseBins, cx)
	for _, k := range multiples {
		if k <= 1 {
			continue
		}
		merged, err := binpack.MergeGroups(baseBins, k)
		if err != nil {
			return nil, err
		}
		set.ByUnit[s0*int64(k)] = BinsToItemsWithComplexity(merged, cx)
	}
	return set, nil
}

// Harness runs probes on a qualified instance and records measurements.
type Harness struct {
	Cloud    *cloudsim.Cloud
	Instance *cloudsim.Instance
	App      workload.App
	Storage  workload.Storage
	// Repeats is the number of runs per probe (the paper's 5).
	Repeats int
	// DatasetKeyFn names the dataset a probe occupies on storage; EBS
	// placement effects key off it. The default keys by unit size, which
	// reproduces Fig. 5's per-unit-size spikes.
	DatasetKeyFn func(volume, unitSize int64) string
}

// NewHarness creates a harness with the paper's defaults.
func NewHarness(c *cloudsim.Cloud, in *cloudsim.Instance, app workload.App, st workload.Storage) *Harness {
	return &Harness{
		Cloud:    c,
		Instance: in,
		App:      app,
		Storage:  st,
		Repeats:  5,
		DatasetKeyFn: func(volume, unitSize int64) string {
			return fmt.Sprintf("probe-v%d-u%d", volume, unitSize)
		},
	}
}

// MeasureProbeCtx runs one probe Repeats times.
//
// The repeats stay strictly sequential by design: each workload.RunCtx
// draws from the instance's noise stream and advances the virtual clock,
// so run i's measurement depends on the RNG state left by run i-1 —
// reordering the repeats would change every sampled value. Parallelism
// lives one level down instead, inside workload.EstimateCtx's per-item
// cost sum, which is RNG-free and fans out over the shared par pool
// without touching the stream. The context is checked between repeats —
// never inside one — so a run that completes consumes the same RNG draws
// and virtual time whatever context it was given.
func (h *Harness) MeasureProbeCtx(ctx context.Context, volume, unitSize int64, items []workload.Item) (Measurement, error) {
	if len(items) == 0 {
		return Measurement{}, fmt.Errorf("probe: empty probe")
	}
	key := h.DatasetKeyFn(volume, unitSize)
	runs := make([]float64, 0, h.Repeats)
	for i := 0; i < h.Repeats; i++ {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return Measurement{}, cerr
		}
		d, err := workload.RunCtx(ctx, h.Cloud, h.Instance, h.App, items, h.Storage, key)
		if err != nil {
			return Measurement{}, err
		}
		runs = append(runs, d.Seconds())
	}
	s := stats.Summarize(runs)
	return Measurement{
		Volume:   volume,
		UnitSize: unitSize,
		Files:    len(items),
		Runs:     runs,
		Mean:     s.Mean,
		StdDev:   s.StdDev,
	}, nil
}

// MeasureSetCtx measures the original probe and every reshaped probe of a
// set, in ascending unit order; ctx is threaded through each probe's
// measurement loop.
func (h *Harness) MeasureSetCtx(ctx context.Context, set *Set) ([]Measurement, error) {
	out := make([]Measurement, 0, len(set.ByUnit)+1)
	m, err := h.MeasureProbeCtx(ctx, set.Volume, 0, set.Original)
	if err != nil {
		return nil, err
	}
	out = append(out, m)
	for _, u := range set.UnitSizes() {
		m, err := h.MeasureProbeCtx(ctx, set.Volume, u, set.ByUnit[u])
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Protocol drives the full escalation loop of §4.
type Protocol struct {
	Harness *Harness
	// InitialVolume is V0 (the paper starts at a single small file / 1 MB).
	InitialVolume int64
	// Growth is the volume multiplier k between escalations.
	Growth int64
	// MaxVolume bounds escalation.
	MaxVolume int64
	// StableCV is the coefficient-of-variation threshold below which a
	// probe set counts as stable (the paper discards the 1 MB grep results
	// as "too unstable").
	StableCV float64
	// MinSets keeps escalating (volume and corpus permitting) until at
	// least this many probe sets exist, even if stability is reached
	// earlier — the downstream regression needs multiple volumes. Zero
	// means 1.
	MinSets int
	// S0 is the base unit size; Multiples derives the rest.
	S0        int64
	Multiples []int
	// Complexity optionally holds the content complexity of each file
	// RunCtx is given, in order; probes then price heterogeneous corpora
	// (merged unit files carry the size-weighted mean). Nil means 1.
	Complexity []float64
}

// Result of a full protocol run.
type Result struct {
	// Sets holds the measurements per volume, in escalation order.
	Sets [][]Measurement
	// StableVolume is the first volume whose probe set was stable (the
	// last escalation if none stabilised).
	StableVolume int64
	// Stable reports whether the loop terminated by stability rather than
	// by hitting MaxVolume.
	Stable bool
}

// RunCtx escalates volume until the probe set is stable or MaxVolume is
// hit. The context is checked before each escalation (and between the
// repeats inside each probe), so an abort lands within one measurement of
// the cancel.
func (p *Protocol) RunCtx(ctx context.Context, files []binpack.Item) (*Result, error) {
	switch {
	case p.InitialVolume <= 0:
		return nil, errs.Invalid("probe: protocol InitialVolume %d is not positive", p.InitialVolume)
	case p.Growth < 2:
		return nil, errs.Invalid("probe: protocol Growth %d is below 2", p.Growth)
	case p.MaxVolume < p.InitialVolume:
		return nil, errs.Invalid("probe: protocol MaxVolume %d is below InitialVolume %d", p.MaxVolume, p.InitialVolume)
	}
	var available int64
	for _, f := range files {
		available += f.Size
	}
	res := &Result{}
	for v := p.InitialVolume; v <= p.MaxVolume; v *= p.Growth {
		if v > available {
			// The corpus cannot supply a larger probe; stop escalating.
			break
		}
		if cerr := errs.FromContext(ctx); cerr != nil {
			return nil, cerr
		}
		set, err := BuildSet(files, v, p.S0, p.Multiples, p.Complexity)
		if err != nil {
			return nil, err
		}
		ms, err := p.Harness.MeasureSetCtx(ctx, set)
		if err != nil {
			return nil, err
		}
		res.Sets = append(res.Sets, ms)
		res.StableVolume = v
		if allStable(ms, p.StableCV) {
			res.Stable = true
			if len(res.Sets) >= p.MinSets {
				return res, nil
			}
		} else {
			res.Stable = false
		}
	}
	return res, nil
}

func allStable(ms []Measurement, maxCV float64) bool {
	for _, m := range ms {
		if m.CV() > maxCV {
			return false
		}
	}
	return true
}

// PickPreferredUnit selects the preferred unit file size from a probe
// set's measurements: among probes whose mean is within tol of the
// minimum (the plateau), it picks the one with the smallest standard
// deviation, breaking ties toward larger units (fewer files → faster
// result retrieval, §1). A result of 0 means the original segmentation won
// — the POS outcome of Fig. 7.
func PickPreferredUnit(ms []Measurement, tol float64) (int64, error) {
	if len(ms) == 0 {
		return 0, fmt.Errorf("probe: no measurements")
	}
	minMean := ms[0].Mean
	for _, m := range ms {
		if m.Mean < minMean {
			minMean = m.Mean
		}
	}
	best := -1
	for i, m := range ms {
		if m.Mean > minMean*(1+tol) {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		b := ms[best]
		switch {
		case m.StdDev < b.StdDev*0.95:
			best = i
		case m.StdDev <= b.StdDev*1.05 && m.UnitSize > b.UnitSize:
			best = i
		}
	}
	return ms[best].UnitSize, nil
}

// AllRunsPoints converts measurements at a fixed unit size into (volume,
// seconds) regression points for the performance model (§5: "we focus
// strictly on the measurements relevant to that unit file size"). It emits
// every individual run rather than the means, giving the residual
// distribution more degrees of freedom for the deadline-adjustment analysis.
func AllRunsPoints(sets [][]Measurement, unitSize int64) (xs, ys []float64) {
	for _, ms := range sets {
		for _, m := range ms {
			if m.UnitSize == unitSize {
				for _, r := range m.Runs {
					xs = append(xs, float64(m.Volume))
					ys = append(ys, r)
				}
			}
		}
	}
	return xs, ys
}
