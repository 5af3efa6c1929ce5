package experiments

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// defaultSweep is one parallel RunAllCtx at default config, shared by every
// test of the binary that reads a default-config report: the drivers are
// pure functions of their Config, so one sweep answers them all.
var defaultSweep = sync.OnceValues(func() ([]*Report, error) {
	return RunAllCtx(context.Background(), Config{})
})

// run returns a driver's report from the shared default sweep, failing the
// test on error.
func run(t *testing.T, id string) *Report {
	t.Helper()
	i := 0
	for i < len(Registry) && Registry[i].ID != id {
		i++
	}
	if i == len(Registry) {
		t.Fatalf("no driver registered for %s", id)
	}
	reports, err := defaultSweep()
	if err != nil {
		t.Fatalf("default sweep: %v", err)
	}
	rep := reports[i]
	if rep.ID != id {
		t.Fatalf("report ID %q != %q", rep.ID, id)
	}
	if rep.String() == "" {
		t.Fatalf("%s: empty rendering", id)
	}
	return rep
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1a", "fig1b", "fig2", "fig3", "fig4", "fig5", "eq12", "fig6",
		"fig7", "eq34", "fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b", "fig9c",
		"complexity", "switchcalc", "costfn", "retrieval"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestFig1aShape(t *testing.T) {
	rep := run(t, "fig1a")
	if rep.Values["frac_below_50kB"] < 0.5 {
		t.Errorf("majority not below 50 kB: %v", rep.Values["frac_below_50kB"])
	}
	if rep.Values["tail_files"] == 0 {
		t.Error("no long tail beyond 300 kB")
	}
	if rep.Values["max_bytes"] > 43_000_000 {
		t.Errorf("max %v exceeds the 43 MB cap", rep.Values["max_bytes"])
	}
	mean := rep.Values["mean_bytes"]
	if mean < 25_000 || mean > 100_000 {
		t.Errorf("mean size %v far from the paper's ≈50 kB", mean)
	}
}

func TestFig1bShape(t *testing.T) {
	rep := run(t, "fig1b")
	if rep.Values["frac_below_1kB"] < 0.35 {
		t.Errorf("under-1kB fraction %v, paper reports >40%%", rep.Values["frac_below_1kB"])
	}
	if rep.Values["frac_below_5kB"] < 0.5 {
		t.Errorf("majority not under 5 kB: %v", rep.Values["frac_below_5kB"])
	}
	if rep.Values["max_bytes"] > 705_000 {
		t.Errorf("max %v exceeds 705 kB", rep.Values["max_bytes"])
	}
}

func TestFig2Strategies(t *testing.T) {
	rep := run(t, "fig2")
	if rep.Values["convex_prefers_new_instances"] != 1 {
		t.Error("convex model should prefer fresh instances")
	}
	if rep.Values["concave_prefers_packing"] != 1 {
		t.Error("concave model should prefer packing to the deadline")
	}
}

func TestFig3Unstable(t *testing.T) {
	rep := run(t, "fig3")
	if rep.Values["unstable"] != 1 {
		t.Errorf("1 MB probe stable (max CV %v); the paper discards it as unstable", rep.Values["max_cv"])
	}
	if rep.Values["mean_seconds"] > 2 {
		t.Errorf("1 MB probe took %vs; should be sub-second scale", rep.Values["mean_seconds"])
	}
}

func TestFig4Plateau(t *testing.T) {
	rep := run(t, "fig4")
	ratio := rep.Values["plateau_ratio_10MB_2GB"]
	if ratio < 0.9 || ratio > 1.15 {
		t.Errorf("plateau ratio = %v, want ≈1 (10 MB to 2 GB)", ratio)
	}
	if rep.Values["orig_vs_plateau"] < 3 {
		t.Errorf("original files only %vx slower; paper shows a large gap", rep.Values["orig_vs_plateau"])
	}
}

func TestFig5Spikes(t *testing.T) {
	rep := run(t, "fig5")
	if rep.Values["spikes"] < 1 {
		t.Error("no EBS placement spikes in the sweep")
	}
	if rep.Values["plateau_spread"] < 1.3 {
		t.Errorf("spread %v too small; the paper sees spikes up to 3x", rep.Values["plateau_spread"])
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("spike not repeatable: %s", n)
		}
	}
}

func TestEq12Fits(t *testing.T) {
	rep := run(t, "eq12")
	slope := rep.Values["eq1_slope_s_per_byte"]
	// Paper: 1.324e-8 s/byte; accept a 2x band (substrate differs).
	if slope < 1.324e-8/2 || slope > 1.324e-8*2 {
		t.Errorf("Eq.(1) slope %v far from the paper's 1.324e-8", slope)
	}
	if rep.Values["eq1_r2"] < 0.99 {
		t.Errorf("Eq.(1) R² = %v, paper reports 0.999", rep.Values["eq1_r2"])
	}
	if rep.Values["sample_spread"] < 1.01 {
		t.Error("random samples show no variability; paper reports 23.25-45.95s")
	}
}

func TestFig6PredictionAndImprovement(t *testing.T) {
	rep := run(t, "fig6")
	if rep.Values["underestimate_frac"] <= 0 {
		t.Errorf("model overestimated (%v); paper reports a ~30%% underestimate", rep.Values["underestimate_frac"])
	}
	imp := rep.Values["improvement_vs_original"]
	if imp < 3.5 || imp > 9 {
		t.Errorf("improvement = %vx, paper reports 5.6x", imp)
	}
}

func TestFig7OriginalWins(t *testing.T) {
	rep := run(t, "fig7")
	// Paper: original segmentation fares best; merging buys nothing. Our
	// plateau tolerance may pick the statistically indistinguishable 1 kB
	// unit, but large units must clearly lose.
	if rep.Values["preferred_unit"] > 1000 {
		t.Errorf("preferred unit %v; the paper keeps small/original segmentation", rep.Values["preferred_unit"])
	}
	if rep.Values["large_unit_degradation"] < 1.3 {
		t.Errorf("1 MB unit only %vx worse; paper calls the degradation pronounced", rep.Values["large_unit_degradation"])
	}
}

func TestEq34Fits(t *testing.T) {
	rep := run(t, "eq34")
	slope := rep.Values["eq3_slope_s_per_byte"]
	if slope < 0.865e-4/2 || slope > 0.865e-4*2 {
		t.Errorf("Eq.(3) slope %v far from the paper's 0.865e-4", slope)
	}
	if rep.Values["eq3_r2"] < 0.99 {
		t.Errorf("Eq.(3) R² = %v", rep.Values["eq3_r2"])
	}
	a := rep.Values["adjustment_a"]
	if a < 0.05 || a > 0.6 {
		t.Errorf("adjustment a = %v, paper derives ≈0.15", a)
	}
	if adj := rep.Values["adjusted_3600"]; adj >= 3600 || adj < 2000 {
		t.Errorf("adjusted deadline %v; paper derates 3600 → 3124", adj)
	}
}

func TestFig8Panels(t *testing.T) {
	a := run(t, "fig8a")
	b := run(t, "fig8b")
	c := run(t, "fig8c")
	d := run(t, "fig8d")
	// Paper arithmetic: ⌈26.1⌉ = 27 instances under model (3).
	if a.Values["instances"] != 27 || b.Values["instances"] != 27 {
		t.Errorf("model (3) instances = %v/%v, want 27", a.Values["instances"], b.Values["instances"])
	}
	// Model (4) prescribes 22.
	if c.Values["instances"] != 22 {
		t.Errorf("model (4) instances = %v, want 22", c.Values["instances"])
	}
	// Uniform bins miss less than first-fit at the same instance count.
	if b.Values["missed"] > a.Values["missed"] {
		t.Errorf("uniform missed %v > first-fit %v", b.Values["missed"], a.Values["missed"])
	}
	// Model (4)'s under-provisioned plan misses pervasively.
	if c.Values["missed"] < c.Values["instances"]*0.8 {
		t.Errorf("model (4) missed only %v of %v", c.Values["missed"], c.Values["instances"])
	}
	// The adjusted deadline recovers: fewer misses than (c), more instances.
	if d.Values["missed"] >= c.Values["missed"] {
		t.Errorf("adjusted missed %v, not below (c)'s %v", d.Values["missed"], c.Values["missed"])
	}
	if d.Values["instances"] <= c.Values["instances"] {
		t.Errorf("adjusted instances %v not above (c)'s %v", d.Values["instances"], c.Values["instances"])
	}
	if d.Values["planned_deadline_s"] >= 3600 {
		t.Error("adjusted plan did not derate the deadline")
	}
}

func TestFig9Panels(t *testing.T) {
	a := run(t, "fig9a")
	b := run(t, "fig9b")
	c := run(t, "fig9c")
	// Paper: 14 instances (28 instance-hours) under model (3) at D=2h.
	if a.Values["instances"] != 14 {
		t.Errorf("fig9a instances = %v, want 14", a.Values["instances"])
	}
	if a.Values["missed"] > 1 {
		t.Errorf("fig9a missed %v; paper meets the deadline loosely", a.Values["missed"])
	}
	// Model (4): 11 instances, deadline missed.
	if b.Values["instances"] != 11 {
		t.Errorf("fig9b instances = %v, want 11", b.Values["instances"])
	}
	if b.Values["missed"] < b.Values["instances"]*0.8 {
		t.Errorf("fig9b missed only %v of %v", b.Values["missed"], b.Values["instances"])
	}
	// Adjusted: met again, and cheaper or equal to fig9a (paper: 26 vs 28).
	if c.Values["missed"] > 1 {
		t.Errorf("fig9c missed %v; paper meets the deadline", c.Values["missed"])
	}
	if c.Values["instance_hours"] > a.Values["instance_hours"]+2 {
		t.Errorf("fig9c hours %v much worse than fig9a %v", c.Values["instance_hours"], a.Values["instance_hours"])
	}
}

func TestComplexityRatio(t *testing.T) {
	rep := run(t, "complexity")
	ratio := rep.Values["ratio"]
	// Paper: 6m32s / 3m48s = 1.72.
	if ratio < 1.3 || ratio > 2.5 {
		t.Errorf("complexity ratio = %v, paper reports 1.72", ratio)
	}
	if d := rep.Values["word_diff"]; d < 0 || d > 300 {
		t.Errorf("word difference = %v, paper keeps it within 300", d)
	}
}

func TestSwitchCalc(t *testing.T) {
	rep := run(t, "switchcalc")
	if v := rep.Values["stay_gb"]; v < 200 || v < 0 {
		t.Errorf("stay = %v GB, want ≈210", v)
	}
	if v := rep.Values["switch_gain_gb"]; v < 40 || v > 80 {
		t.Errorf("gain = %v GB, want ≈57", v)
	}
	if v := rep.Values["switch_loss_gb"]; v < 5 || v > 15 {
		t.Errorf("loss = %v GB, want ≈10", v)
	}
	if rep.Values["recommend_switch"] != 1 {
		t.Error("switch not recommended")
	}
}

func TestAnalyzeSwitchPaperExample(t *testing.T) {
	// §3.1: slow instance at 60 MB/s processes ≈210 GB/h (the paper rounds
	// 216 down); a fast replacement (≈75+ MB/s) with a 3-minute penalty
	// gains ≈57 GB; a slow replacement loses ≈10 GB.
	d, err := analyzeSwitch(60, 78, 3*time.Minute, time.Hour, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.StayGB-216) > 1 {
		t.Errorf("stay = %v GB, want ≈216 (paper rounds to 210)", d.StayGB)
	}
	gain := d.SwitchGB - d.StayGB
	if gain < 40 || gain > 70 {
		t.Errorf("switch gain = %v GB, want ≈57", gain)
	}
	loss := d.StayGB - d.SwitchSlowGB
	if loss < 5 || loss > 15 {
		t.Errorf("slow-replacement loss = %v GB, want ≈10", loss)
	}
	if !d.Recommend {
		t.Error("switch not recommended with certain fast replacement")
	}
}

func TestAnalyzeSwitchExpectedValue(t *testing.T) {
	// With a high enough fast probability the expected gain is positive;
	// with pFast = 0 it must be negative (pure downside).
	hi, err := analyzeSwitch(60, 78, 3*time.Minute, time.Hour, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !hi.Recommend {
		t.Error("80% fast probability should recommend switching")
	}
	lo, err := analyzeSwitch(60, 78, 3*time.Minute, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Recommend {
		t.Error("0% fast probability should not recommend switching")
	}
}

func TestAnalyzeSwitchValidation(t *testing.T) {
	if _, err := analyzeSwitch(0, 10, time.Minute, time.Hour, 0.5); err == nil {
		t.Error("expected error for zero slow speed")
	}
	if _, err := analyzeSwitch(10, 10, -time.Minute, time.Hour, 0.5); err == nil {
		t.Error("expected error for negative penalty")
	}
	if _, err := analyzeSwitch(10, 10, time.Minute, time.Hour, 1.5); err == nil {
		t.Error("expected error for pFast > 1")
	}
	// Penalty longer than horizon: switching yields zero work.
	d, err := analyzeSwitch(60, 78, 2*time.Hour, time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.SwitchGB != 0 || d.Recommend {
		t.Errorf("over-long penalty: %+v", d)
	}
}

func TestCostFn(t *testing.T) {
	rep := run(t, "costfn")
	if rep.Values["subhour_premium"] <= 1 {
		t.Error("sub-hour deadlines should cost strictly more")
	}
	// d ≥ 1h: cost is flat at r·⌈P⌉.
	if rep.Values["cost_d1.00"] != rep.Values["cost_d6.00"] {
		t.Error("cost should be deadline-independent above one hour")
	}
	if rep.Values["cost_d0.25"] <= rep.Values["cost_d0.50"] {
		t.Error("cost should grow as sub-hour deadlines shrink")
	}
}

func TestRetrievalSegmentationPenalty(t *testing.T) {
	rep := run(t, "retrieval")
	if rep.Values["speedup_2M_to_100_files"] < 5 {
		t.Errorf("retrieval speedup = %v, want large", rep.Values["speedup_2M_to_100_files"])
	}
	if rep.Values["segmented_s"] <= rep.Values["merged_s"] {
		t.Error("segmented retrieval not slower than merged")
	}
}

func TestRunAllProducesEveryReport(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is the slow full sweep")
	}
	reports, err := defaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(Registry) {
		t.Fatalf("reports = %d, want %d", len(reports), len(Registry))
	}
	for i, rep := range reports {
		if rep.ID != Registry[i].ID {
			t.Errorf("report %d = %s, want %s", i, rep.ID, Registry[i].ID)
		}
	}
	// The concurrent sweep must be indistinguishable from the serial one:
	// every driver builds its own seeded world, so the reports — tables,
	// notes and scalar values alike — are bit-identical at any worker count.
	serial, err := RunAllWorkersCtx(context.Background(), Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(reports) {
		t.Fatalf("serial reports = %d, parallel %d", len(serial), len(reports))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], reports[i]) {
			t.Errorf("report %s differs between serial and parallel runs", serial[i].ID)
		}
	}
}

// TestRunAllMatchesGolden pins the simulator's output: every report of a
// default run, rendered exactly as cmd/experiments prints it, must equal
// testdata/all.golden byte for byte. Regenerate the file with
// `go run ./cmd/experiments > internal/experiments/testdata/all.golden`
// when a change to the output is intended.
func TestRunAllMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is the slow full sweep")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden output was recorded on amd64; %s may fuse multiply-adds, which rounds the last printed digits differently", runtime.GOARCH)
	}
	reports, err := defaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, rep := range reports {
		fmt.Fprintln(&got, rep)
	}
	want, err := os.ReadFile("testdata/all.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output differs from testdata/all.golden at line %d:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, testdata/all.golden %d", len(gotLines), len(wantLines))
}

func TestReportRendering(t *testing.T) {
	rep := newReport("x", "test report")
	rep.note("a note with %d", 42)
	rep.Header = []string{"col1", "col2"}
	rep.addRow("a", "b")
	rep.Values["v"] = 1.5
	s := rep.String()
	for _, want := range []string{"test report", "a note with 42", "col1", "col2", "v", "1.5"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 2011 || c.Scale != 1 {
		t.Errorf("defaults = %+v", c)
	}
	c2 := Config{Seed: 5, Scale: 2}.withDefaults()
	if c2.Seed != 5 || c2.Scale != 2 {
		t.Errorf("explicit config overwritten: %+v", c2)
	}
}

func TestScaleParameterRespected(t *testing.T) {
	small, err := Fig1a(context.Background(), Config{Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Fig1a(context.Background(), Config{Scale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if big.Values["files"] != 4*small.Values["files"] {
		t.Errorf("scale not linear in files: %v vs %v", big.Values["files"], small.Values["files"])
	}
	// Shape statistics are scale-invariant.
	if d := big.Values["frac_below_50kB"] - small.Values["frac_below_50kB"]; d < -0.05 || d > 0.05 {
		t.Errorf("distribution shape drifted with scale: %v", d)
	}
}
