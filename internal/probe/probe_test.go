package probe

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/workload"
)

func corpusItems(t *testing.T, spec corpus.Spec, seed int64) []binpack.Item {
	t.Helper()
	fs, err := corpus.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	var items []binpack.Item
	for _, f := range fs.List() {
		items = append(items, binpack.Item{ID: f.Name, Size: f.Size})
	}
	return items
}

// totalBytes sums the item sizes.
func totalBytes(items []workload.Item) int64 {
	var total int64
	for _, it := range items {
		total += it.Size
	}
	return total
}

func qualified(t *testing.T, seed int64) (*cloudsim.Cloud, *cloudsim.Instance) {
	t.Helper()
	c := cloudsim.New(seed)
	in, _, err := c.AcquireQualifiedCtx(context.Background(), cloudsim.Small, "us-east-1a", 50)
	if err != nil {
		t.Fatal(err)
	}
	return c, in
}

func TestSelectPrefix(t *testing.T) {
	files := []binpack.Item{{ID: "a", Size: 10}, {ID: "b", Size: 20}, {ID: "c", Size: 30}}
	sel, err := SelectPrefix(files, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Errorf("selection = %v", sel)
	}
	if _, err := SelectPrefix(files, 100); err == nil {
		t.Error("expected error for oversized volume")
	}
	if _, err := SelectPrefix(files, 0); err == nil {
		t.Error("expected error for zero volume")
	}
}

func TestBuildSetDerivesMultiplesWithoutRepacking(t *testing.T) {
	items := corpusItems(t, corpus.Text400K(0.005), 1) // 2000 files
	const volume = 2_000_000
	const s0 = 10_000
	want := []int64{0, s0, 2 * s0, 5 * s0, 10 * s0}
	set, err := BuildSet(items, volume, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != len(want) || len(set[0].Files) == 0 || set[0].Bins != nil {
		t.Fatalf("set of %d probes, want %d led by the original segmentation", len(set), len(want))
	}
	// Volume is conserved across every reshaping.
	origTotal := totalBytes((&Harness{}).items(set[0]))
	for i, p := range set {
		if p.UnitSize != want[i] || p.Volume != volume {
			t.Errorf("probe %d: volume %d, unit %d; want %d, %d", i, p.Volume, p.UnitSize, volume, want[i])
		}
		if got := totalBytes((&Harness{}).items(p)); got != origTotal {
			t.Errorf("unit %d: volume %d != original %d", p.UnitSize, got, origTotal)
		}
		// Larger units → no more files than the s0 packing.
		if p.UnitSize > s0 && len(p.Bins) > len(set[1].Bins) {
			t.Errorf("unit %d has more files than s0", p.UnitSize)
		}
	}
}

func TestBuildSetValidation(t *testing.T) {
	items := []binpack.Item{{ID: "a", Size: 100}}
	for name, units := range map[string][]int64{
		"a negative unit": {0, -10},
		"a unit not k·s0": {10, 15},
	} {
		if _, err := BuildSet(items, 50, units); err == nil {
			t.Errorf("expected error for %s", name)
		}
	}
	if _, err := BuildSet(items, 1000, []int64{10}); err == nil {
		t.Error("expected error for volume beyond corpus")
	}
}

func TestMeasureProbeRepeats(t *testing.T) {
	c, in := qualified(t, 2)
	h := NewHarness(c, in, workload.NewGrep(), workload.Local{})
	units := []binpack.Item{{Size: 100000}, {Size: 100000}, {Size: 100000}}
	m, err := MeasureProbeCtx(context.Background(), h, Probe{Volume: 1000000, UnitSize: 100000, Files: units})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 5 {
		t.Errorf("runs = %d, want 5", len(m.Runs))
	}
	if m.Mean <= 0 || m.Files != 3 {
		t.Errorf("measurement = %+v", m)
	}
	if m.String() == "" {
		t.Error("empty String()")
	}
	if _, err := MeasureProbeCtx(context.Background(), h, Probe{Volume: 10, UnitSize: 10}); err == nil {
		t.Error("expected error for empty probe")
	}
}

func TestMeasureSetCoversAllUnits(t *testing.T) {
	items := corpusItems(t, corpus.Text400K(0.002), 3)
	set, err := BuildSet(items, 500_000, []int64{0, 5_000, 10_000, 20_000})
	if err != nil {
		t.Fatal(err)
	}
	c, in := qualified(t, 3)
	h := NewHarness(c, in, workload.NewPOS(), workload.Local{})
	ms, err := MeasureSetCtx(context.Background(), h, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 4 { // orig + 3 units
		t.Fatalf("measurements = %d, want 4", len(ms))
	}
	if ms[0].UnitSize != 0 {
		t.Error("first measurement should be the original probe")
	}
}

func TestProtocolEscalatesUntilStable(t *testing.T) {
	items := corpusItems(t, corpus.Text400K(0.02), 4)
	c, in := qualified(t, 4)
	h := NewHarness(c, in, workload.NewGrep(), workload.Local{})
	p := &Protocol{
		Runner:        h,
		InitialVolume: 100_000, // tiny: setup noise dominates → unstable
		Growth:        10,
		MaxVolume:     100_000_000,
		StableCV:      0.15,
		S0:            50_000,
		Multiples:     []int{10},
	}
	res, err := p.RunCtx(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sets) == 0 {
		t.Fatal("no probe sets measured")
	}
	if !res.Stable {
		t.Error("protocol never stabilised up to 100 MB")
	}
	// The first (tiny) volume should be less stable than the last.
	firstCV, lastCV := 0.0, 0.0
	for _, m := range res.Sets[0] {
		if m.CV() > firstCV {
			firstCV = m.CV()
		}
	}
	for _, m := range res.Sets[len(res.Sets)-1] {
		if m.CV() > lastCV {
			lastCV = m.CV()
		}
	}
	if firstCV <= lastCV {
		t.Errorf("instability did not shrink: first max CV %.3f vs last %.3f", firstCV, lastCV)
	}
}

func TestProtocolValidation(t *testing.T) {
	p := &Protocol{InitialVolume: 0}
	if _, err := p.RunCtx(context.Background(), nil); err == nil {
		t.Error("expected error for invalid config")
	}
	// The refusal names the failing field and its value, not the struct
	// (whose %+v prints the harness pointer).
	for field, bad := range map[string]Protocol{
		"InitialVolume -5": {InitialVolume: -5, Growth: 2, MaxVolume: 10},
		"Growth 1":         {InitialVolume: 1, Growth: 1, MaxVolume: 10},
		"MaxVolume 3":      {InitialVolume: 4, Growth: 2, MaxVolume: 3, Runner: &Harness{}},
		"S0 0":             {InitialVolume: 1, Growth: 2, MaxVolume: 10, Runner: &Harness{}},
	} {
		_, err := bad.RunCtx(context.Background(), nil)
		if !errors.Is(err, errs.ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", field, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, field) || strings.Contains(msg, "0x") {
			t.Errorf("%s: err = %q, want it to name the field and its value and print no pointer", field, msg)
		}
	}
}

func TestPickPreferredUnitGrepShape(t *testing.T) {
	// Grep-like measurements: tiny units slow, plateau from 10 MB.
	ms := []Measurement{
		{UnitSize: 0, Mean: 60, StdDev: 2},
		{UnitSize: 1_000_000, Mean: 20, StdDev: 1},
		{UnitSize: 10_000_000, Mean: 14.2, StdDev: 0.8},
		{UnitSize: 100_000_000, Mean: 14.0, StdDev: 0.3},
		{UnitSize: 1_000_000_000, Mean: 14.1, StdDev: 1.5},
	}
	got, err := PickPreferredUnit(ms, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// 100 MB: on the plateau with the smallest stddev — the paper's pick.
	if got != 100_000_000 {
		t.Errorf("preferred unit = %d, want 100 MB", got)
	}
}

func TestPickPreferredUnitPOSShape(t *testing.T) {
	// POS-like: the original segmentation wins (Fig. 7).
	ms := []Measurement{
		{UnitSize: 0, Mean: 80, StdDev: 1},
		{UnitSize: 1_000, Mean: 85, StdDev: 1},
		{UnitSize: 10_000, Mean: 95, StdDev: 1},
		{UnitSize: 1_000_000, Mean: 130, StdDev: 2},
	}
	got, err := PickPreferredUnit(ms, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("preferred unit = %d, want 0 (original)", got)
	}
}

func TestPickPreferredUnitEmpty(t *testing.T) {
	if _, err := PickPreferredUnit(nil, 0.05); err == nil {
		t.Error("expected error for no measurements")
	}
}

func TestPointsExtraction(t *testing.T) {
	sets := [][]Measurement{
		{{Volume: 100, UnitSize: 10, Mean: 1, Runs: []float64{0.9, 1.1}}},
		{{Volume: 200, UnitSize: 10, Mean: 2, Runs: []float64{1.9, 2.1}},
			{Volume: 200, UnitSize: 20, Mean: 3, Runs: []float64{3}}},
	}
	xr, yr := AllRunsPoints(sets, 10)
	if len(xr) != 4 || xr[0] != 100 || xr[2] != 200 || yr[0] != 0.9 || yr[3] != 2.1 {
		t.Errorf("all-runs points = %v, %v", xr, yr)
	}
	if xs2, _ := AllRunsPoints(sets, 99); xs2 != nil {
		t.Error("unknown unit returned points")
	}
}

func TestFig5SpikesAreRepeatable(t *testing.T) {
	// Running the same probe family twice on the same EBS volume must
	// reproduce the same slow placements ("the results are repeatable and
	// stable in time").
	items := corpusItems(t, corpus.Text400K(0.02), 6)
	c, in := qualified(t, 6)
	vol, err := c.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(vol, in); err != nil {
		t.Fatal(err)
	}
	h := NewHarness(c, in, workload.NewGrep(), vol)
	set, err := BuildSet(items, 5_000_000, []int64{100_000, 200_000, 400_000, 800_000, 1_600_000})
	if err != nil {
		t.Fatal(err)
	}
	first, err := MeasureSetCtx(context.Background(), h, set)
	if err != nil {
		t.Fatal(err)
	}
	second, err := MeasureSetCtx(context.Background(), h, set)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		rel := first[i].Mean/second[i].Mean - 1
		if rel < -0.25 || rel > 0.25 {
			t.Errorf("unit %d mean not repeatable: %.3f vs %.3f", first[i].UnitSize, first[i].Mean, second[i].Mean)
		}
	}
}

func TestHarnessDatasetKeyFnDrivesPlacement(t *testing.T) {
	// The simulated runner keys EBS placement by (volume, unit size): the
	// same unit files probed under other volumes or other unit sizes land
	// in other placements and run at other speeds — the mechanism behind
	// Fig. 5's spikes. 100 MB of 1 MB files keeps run-to-run noise well
	// below the placement factors.
	c, in := qualified(t, 7)
	vol, err := c.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Attach(vol, in); err != nil {
		t.Fatal(err)
	}
	files := make([]binpack.Item, 100)
	for i := range files {
		files[i].Size = 1_000_000
	}
	set, err := BuildSet(files, 100_000_000, []int64{10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHarness(c, in, workload.NewGrep(), vol)
	for _, tc := range []struct {
		name    string
		relabel func(p *Probe, i int64)
	}{
		{"unit size", func(p *Probe, i int64) { p.UnitSize *= i }},
		{"volume", func(p *Probe, i int64) { p.Volume += i }},
	} {
		fastest, slowest := math.Inf(1), 0.0
		for i := int64(1); i <= 30; i++ {
			p := set[0]
			tc.relabel(&p, i)
			m, err := MeasureProbeCtx(context.Background(), h, p)
			if err != nil {
				t.Fatal(err)
			}
			fastest, slowest = math.Min(fastest, m.Mean), math.Max(slowest, m.Mean)
		}
		if slowest < 1.3*fastest {
			t.Errorf("the same files under 30 %ss: spread %.2fx, want > 1.3x (paper saw up to 3x)", tc.name, slowest/fastest)
		}
	}
}
