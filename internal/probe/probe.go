// Package probe implements the paper's §4 measurement protocol: construct
// test probes from the original data set by varying two dimensions — total
// volume and unit file size — run each probe five times, track means and
// standard deviations, escalate the volume while measurements are
// unstable, and finally select a preferred unit file size from the most
// stable probe sets. The application is a black box behind Runner; sim.go
// holds the simulated one.
package probe

import (
	"context"
	"fmt"
	"time"

	"repro/internal/binpack"
	"repro/internal/errs"
	"repro/internal/stats"
)

// repeats is the number of runs per probe (§4: "All performance
// measurements are repeated 5 times").
const repeats = 5

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

// Probe is one probe of §4: the files selected for a volume, run at one
// unit file size.
type Probe struct {
	Volume   int64
	UnitSize int64 // 0 = original segmentation
	// Files is the selection, in corpus order.
	Files []binpack.Item
	// Bins holds a reshaped probe's unit files, each member given by its
	// position in Files. Nil means Files are the unit files themselves.
	Bins []*binpack.Bin
}

// units returns the number of unit files the probe runs over.
func (p Probe) units() int {
	if p.Bins == nil {
		return len(p.Files)
	}
	n := 0
	for _, b := range p.Bins {
		if b.Used > 0 {
			n++
		}
	}
	return n
}

// Runner runs the application on one probe once and returns its wall
// time: the black box §4 probes. Harness runs it on the simulated cloud;
// the real scan engine is the other implementation.
type Runner interface {
	RunProbeCtx(ctx context.Context, p Probe) (time.Duration, error)
}

// Set is a family of probes with a common volume and selection: the
// original segmentation P^V_orig and reshaped probes P^V_{s0}..P^V_{sn}.
type Set []Probe

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

// BuildSet constructs the probe family for one volume at the given unit
// sizes, in that order, 0 being the original segmentation. Every other
// size must be a multiple of the smallest, s0. The subset-sum first-fit
// packing runs once at s0; larger unit sizes are derived by merging bins
// (§4: "we perform the bin packing once ... and then directly derive the
// remaining probes").
//
// s0 should exceed the largest file in the selection, as the paper
// prescribes; if it does not, oversized files become their own unit files.
func BuildSet(files []binpack.Item, volume int64, units []int64) (Set, error) {
	selection, err := SelectPrefix(files, volume)
	if err != nil {
		return nil, err
	}
	var s0 int64
	for _, u := range units {
		if u < 0 {
			return nil, fmt.Errorf("probe: unit size must not be negative, got %d", u)
		}
		if u > 0 && (s0 == 0 || u < s0) {
			s0 = u
		}
	}
	var base []*binpack.Bin
	if s0 > 0 {
		if base, err = binpack.SubsetSumFirstFit(selection, s0); err != nil {
			return nil, err
		}
		if err := binpack.Verify(selection, base); err != nil {
			return nil, fmt.Errorf("probe: packing invariant violated: %w", err)
		}
	}
	set := make(Set, len(units))
	for i, u := range units {
		set[i] = Probe{Volume: volume, UnitSize: u, Files: selection}
		switch {
		case u == 0: // the selected files are the unit files
		case u%s0 != 0:
			return nil, fmt.Errorf("probe: unit %d is not a multiple of s0 %d", u, s0)
		case u == s0:
			set[i].Bins = base
		default:
			if set[i].Bins, err = binpack.MergeGroups(base, int(u/s0)); err != nil {
				return nil, err
			}
		}
	}
	return set, nil
}

// MeasureProbeCtx runs one probe repeats times, strictly in sequence:
// a runner's repeats may share state (the simulated instance's noise
// stream and virtual clock), so run i may depend on what run i-1 left.
// The context is checked between repeats, never inside one.
func MeasureProbeCtx(ctx context.Context, r Runner, p Probe) (Measurement, error) {
	files := p.units()
	if files == 0 {
		return Measurement{}, fmt.Errorf("probe: empty probe")
	}
	runs := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return Measurement{}, cerr
		}
		d, err := r.RunProbeCtx(ctx, p)
		if err != nil {
			return Measurement{}, err
		}
		runs = append(runs, d.Seconds())
	}
	s := stats.Summarize(runs)
	return Measurement{
		Volume:   p.Volume,
		UnitSize: p.UnitSize,
		Files:    files,
		Runs:     runs,
		Mean:     s.Mean,
		StdDev:   s.StdDev,
	}, nil
}

// MeasureSetCtx measures every probe of a set, in order.
func MeasureSetCtx(ctx context.Context, r Runner, set Set) ([]Measurement, error) {
	out := make([]Measurement, 0, len(set))
	for _, p := range set {
		m, err := MeasureProbeCtx(ctx, r, p)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Protocol drives the full escalation loop of §4.
type Protocol struct {
	Runner Runner
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
	// S0 is the base unit size; Multiples derives the rest, probed in
	// the order given after the original segmentation and S0.
	S0        int64
	Multiples []int
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
	case p.S0 <= 0:
		return nil, errs.Invalid("probe: protocol S0 %d is not positive", p.S0)
	}
	units := []int64{0, p.S0}
	for _, k := range p.Multiples {
		if k > 1 {
			units = append(units, p.S0*int64(k))
		}
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
		set, err := BuildSet(files, v, units)
		if err != nil {
			return nil, err
		}
		ms, err := MeasureSetCtx(ctx, p.Runner, set)
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
