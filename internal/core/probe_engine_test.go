package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/perfmodel"
	"repro/internal/probe"
	"repro/internal/vfs"
)

// engineRunner is §4's probe Runner on the real scan engine: a reshaped
// probe's unit files are its members' bytes concatenated with vfs.Concat,
// as ReshapeCtx builds them, and a run's wall time is one MeasureCtx over
// the probe's unit files. It records the bytes each (volume, unit size)
// probe scanned.
type engineRunner struct {
	corpus  *vfs.FS
	opts    MeasureOptions
	scanned map[[2]int64]int64
}

func (r *engineRunner) RunProbeCtx(ctx context.Context, p probe.Probe) (time.Duration, error) {
	files := make([]vfs.File, len(p.Files))
	for i, it := range p.Files {
		f, err := r.corpus.Get(it.ID)
		if err != nil {
			return 0, err
		}
		files[i] = f
	}
	units := vfs.NewFS()
	if p.Bins == nil {
		for _, f := range files {
			if err := units.Add(f); err != nil {
				return 0, err
			}
		}
	}
	for i, b := range p.Bins {
		members := make([]vfs.File, len(b.Pos))
		for j, pos := range b.Pos {
			members[j] = files[pos]
		}
		if err := units.Add(vfs.Concat(fmt.Sprintf("unit-%06d", i), members)); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	m, err := MeasureCtx(ctx, units, r.opts)
	if err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	r.scanned[[2]int64{p.Volume, p.UnitSize}] = m.Bytes
	return elapsed, nil
}

// TestProbeProtocolOnEngine runs §4's protocol — escalating probes, the
// plateau pick and the model fits — on the real engine over a ≈ 2 MB
// corpus. Wall times differ from run to run, so it holds the result to
// its shape, never to a time.
func TestProbeProtocolOnEngine(t *testing.T) {
	ctx := context.Background()
	fs, err := corpus.GenerateWithContentEagerCtx(ctx, corpus.Text400K(0.0025), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	items := ItemsFromFS(fs)
	r := &engineRunner{corpus: fs, opts: MeasureOptions{Patterns: []string{"the", "and"}}, scanned: map[[2]int64]int64{}}
	protocol := &probe.Protocol{
		Runner:        r,
		InitialVolume: 125_000,
		Growth:        2,
		MaxVolume:     fs.TotalSize(),
		StableCV:      probeStableCV,
		MinSets:       3,
		S0:            64 << 10,
		Multiples:     []int{4},
	}
	start := time.Now()
	res, err := protocol.RunCtx(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d probe sets over %d bytes in %v", len(res.Sets), fs.TotalSize(), time.Since(start))
	if len(res.Sets) < 2 {
		t.Fatalf("%d probe sets, want at least two volumes to fit over", len(res.Sets))
	}
	for _, set := range res.Sets {
		volume := set[0].Volume
		selection, err := probe.SelectPrefix(items, volume)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, f := range selection {
			want += f.Size
		}
		units := make([]int64, len(set))
		for i, m := range set {
			units[i] = m.UnitSize
			if len(m.Runs) != 5 {
				t.Errorf("%v: %d runs, want 5", m, len(m.Runs))
			}
			for _, run := range m.Runs {
				if !(run > 0) || math.IsInf(run, 0) {
					t.Errorf("%v: run of %v s", m, run)
				}
			}
			if got := r.scanned[[2]int64{volume, m.UnitSize}]; got != want {
				t.Errorf("%v: scanned %d bytes, the selection holds %d", m, got, want)
			}
		}
		if fmt.Sprint(units) != fmt.Sprint([]int64{0, 64 << 10, 256 << 10}) {
			t.Errorf("volume %d probed unit sizes %v, want the original segmentation, s0 and 4·s0", volume, units)
		}
	}

	last := res.Sets[len(res.Sets)-1]
	unit, err := probe.PickPreferredUnit(last, plateauTol)
	if err != nil {
		t.Fatal(err)
	}
	if unit != 0 && unit != 64<<10 && unit != 256<<10 {
		t.Errorf("preferred unit %d is none of the probed sizes", unit)
	}
	xs, ys := probe.AllRunsPoints(res.Sets, unit)
	fits := perfmodel.FitAll(xs, ys)
	if len(fits) == 0 {
		t.Fatalf("no model fits %d points at unit %d", len(xs), unit)
	}
	for _, m := range fits {
		if p, r2 := m.Predict(float64(fs.TotalSize())), m.R2(); math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(r2) || math.IsInf(r2, 0) {
			t.Errorf("%s fit is not finite: predicts %v s for the corpus, R² %v", m.Name(), p, r2)
		}
	}
}
