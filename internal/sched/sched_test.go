package sched

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

func TestAnalyzeSwitchPaperExample(t *testing.T) {
	// §3.1: slow instance at 60 MB/s processes ≈210 GB/h (the paper rounds
	// 216 down); a fast replacement (≈75+ MB/s) with a 3-minute penalty
	// gains ≈57 GB; a slow replacement loses ≈10 GB.
	d, err := AnalyzeSwitch(60, 78, 3*time.Minute, time.Hour, 1.0)
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
	hi, err := AnalyzeSwitch(60, 78, 3*time.Minute, time.Hour, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !hi.Recommend {
		t.Error("80% fast probability should recommend switching")
	}
	lo, err := AnalyzeSwitch(60, 78, 3*time.Minute, time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Recommend {
		t.Error("0% fast probability should not recommend switching")
	}
}

func TestAnalyzeSwitchValidation(t *testing.T) {
	if _, err := AnalyzeSwitch(0, 10, time.Minute, time.Hour, 0.5); err == nil {
		t.Error("expected error for zero slow speed")
	}
	if _, err := AnalyzeSwitch(10, 10, -time.Minute, time.Hour, 0.5); err == nil {
		t.Error("expected error for negative penalty")
	}
	if _, err := AnalyzeSwitch(10, 10, time.Minute, time.Hour, 1.5); err == nil {
		t.Error("expected error for pFast > 1")
	}
	// Penalty longer than horizon: switching yields zero work.
	d, err := AnalyzeSwitch(60, 78, 2*time.Hour, time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.SwitchGB != 0 || d.Recommend {
		t.Errorf("over-long penalty: %+v", d)
	}
}

// grepModel builds a grep-like linear model at ≈57 MB/s effective rate.
func grepModel(t *testing.T) perfmodel.Model {
	t.Helper()
	m, err := perfmodel.FitAffine([]float64{0, 1e9}, []float64{0, 1e9 / 57e6})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// slowCloud returns a cloud whose quality lottery yields only slow
// instances, forcing replacements deterministically.
func slowCloud(seed int64) *cloudsim.Cloud {
	return cloudsim.NewInRegion(seed, cloudsim.USEast,
		cloudsim.QualityDist{SlowFraction: 1, UnstableFraction: 0})
}

// goodCloud yields only good instances.
func goodCloud(seed int64) *cloudsim.Cloud {
	return cloudsim.NewInRegion(seed, cloudsim.USEast,
		cloudsim.QualityDist{SlowFraction: 0, UnstableFraction: 0})
}

func taskItems(n int, size int64) []workload.Item {
	items := make([]workload.Item, n)
	for i := range items {
		items[i] = workload.NewItem(size)
	}
	return items
}

func TestMonitorNoReplacementOnGoodInstance(t *testing.T) {
	c := goodCloud(3)
	vol, err := c.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	rep, err := mo.RunTask(context.Background(), taskItems(40, 100_000_000), vol, "task-a")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements != 0 {
		t.Errorf("replacements = %d, want 0 on a good instance", rep.Replacements)
	}
	if rep.ElapsedS <= 0 || rep.BilledHours < 1 || rep.CostUSD <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	if len(rep.Grades) != 1 || rep.Grades[0] != "good" {
		t.Errorf("grades = %v", rep.Grades)
	}
}

func TestMonitorReplacesSlowInstance(t *testing.T) {
	// All instances slow: the monitor detects and replaces (the new one is
	// slow too, but the mechanism is what is under test).
	c := slowCloud(4)
	vol, err := c.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	mo.SlowRatio = 1.2
	rep, err := mo.RunTask(context.Background(), taskItems(40, 100_000_000), vol, "task-b")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements == 0 {
		t.Error("no replacements on an all-slow cloud")
	}
	if len(rep.Grades) != rep.Replacements+1 {
		t.Errorf("grades %v inconsistent with %d replacements", rep.Grades, rep.Replacements)
	}
	// The volume survives all the churn, attached to the final instance.
	if err := c.Detach(vol); err != nil {
		t.Errorf("volume should remain attached to the final instance: %v", err)
	}
}

func TestMonitorNeverReplacePolicy(t *testing.T) {
	c := slowCloud(4)
	vol, _ := c.CreateVolume("us-east-1a", 100)
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	mo.Policy = NeverReplace
	mo.SlowRatio = 1.2
	rep, err := mo.RunTask(context.Background(), taskItems(20, 100_000_000), vol, "task-c")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements != 0 {
		t.Errorf("never-replace policy replaced %d times", rep.Replacements)
	}
}

func TestMonitorReplaceAtHourBillsNoPartialExtra(t *testing.T) {
	c := slowCloud(5)
	vol, _ := c.CreateVolume("us-east-1a", 100)
	now := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	now.SlowRatio = 1.2
	repNow, err := now.RunTask(context.Background(), taskItems(40, 100_000_000), vol, "task-d")
	if err != nil {
		t.Fatal(err)
	}

	c2 := slowCloud(5)
	vol2, _ := c2.CreateVolume("us-east-1a", 100)
	atHour := NewMonitor(c2, workload.NewGrep(), grepModel(t), "us-east-1a")
	atHour.SlowRatio = 1.2
	atHour.Policy = ReplaceAtHour
	repHour, err := atHour.RunTask(context.Background(), taskItems(40, 100_000_000), vol2, "task-d")
	if err != nil {
		t.Fatal(err)
	}
	// Replace-at-hour waits longer in wall clock...
	if repHour.Replacements > 0 && repHour.ElapsedS <= repNow.ElapsedS {
		t.Errorf("replace-at-hour elapsed %v not above replace-now %v", repHour.ElapsedS, repNow.ElapsedS)
	}
	// ...but never bills more hours than replace-now (it only consumes the
	// hours already paid for).
	if repHour.BilledHours > repNow.BilledHours {
		t.Errorf("replace-at-hour billed %v > replace-now %v", repHour.BilledHours, repNow.BilledHours)
	}
}

func TestMonitorValidation(t *testing.T) {
	c := goodCloud(1)
	vol, _ := c.CreateVolume("us-east-1a", 100)
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	mo.Chunks = 0
	if _, err := mo.RunTask(context.Background(), taskItems(1, 1), vol, "k"); err == nil {
		t.Error("expected error for zero chunks")
	}
	mo.Chunks = 2
	mo.SlowRatio = 1
	if _, err := mo.RunTask(context.Background(), taskItems(1, 1), vol, "k"); err == nil {
		t.Error("expected error for SlowRatio ≤ 1")
	}
}

func TestSplitChunks(t *testing.T) {
	items := taskItems(10, 1)
	chunks := splitChunks(items, 3)
	if len(chunks) != 3 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	total := 0
	for _, ch := range chunks {
		total += len(ch)
	}
	if total != 10 {
		t.Errorf("chunked items = %d, want 10", total)
	}
	if got := splitChunks(items, 100); len(got) != 10 {
		t.Errorf("over-chunking produced %d chunks", len(got))
	}
}

func TestBillHours(t *testing.T) {
	cases := []struct {
		s    float64
		want float64
	}{{0, 0}, {1, 1}, {3600, 1}, {3601, 2}, {7200, 2}}
	for _, c := range cases {
		if got := billHours(c.s); got != c.want {
			t.Errorf("billHours(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPlanSpotCheaperThanOnDemand(t *testing.T) {
	c := cloudsim.New(8)
	// Bid just above base: some hours active, charged below on-demand.
	out, err := PlanSpot(c, c.Spot().Base*1.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.CostUSD >= out.OnDemandUSD {
		t.Errorf("spot cost %v not below on-demand %v", out.CostUSD, out.OnDemandUSD)
	}
	if out.SpanHours < out.WorkHours {
		t.Errorf("span %v below work %v", out.SpanHours, out.WorkHours)
	}
	if out.ActiveHours < 10 {
		t.Errorf("active hours %d below work hours", out.ActiveHours)
	}
}

func TestPlanSpotHighBidRunsStraightThrough(t *testing.T) {
	c := cloudsim.New(8)
	out, err := PlanSpot(c, 10 /* above any price */, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Interruptions != 0 {
		t.Errorf("interruptions = %d, want 0 at a top bid", out.Interruptions)
	}
	if math.Abs(out.SpanHours-5) > 1.01 {
		t.Errorf("span = %v, want ≈5", out.SpanHours)
	}
}

func TestPlanSpotLowBidInterrupted(t *testing.T) {
	c := cloudsim.New(8)
	// 20 work hours cannot fit in one cheap half-day window, so the job
	// must straddle at least one expensive stretch.
	out, err := PlanSpot(c, c.Spot().Base*0.95, 20)
	if err != nil {
		t.Fatal(err)
	}
	if out.Interruptions == 0 {
		t.Error("a below-base bid should be interrupted across the daily cycle")
	}
	if out.SpanHours <= out.WorkHours {
		t.Error("interrupted job should span longer than its work")
	}
}

func TestPlanSpotValidation(t *testing.T) {
	c := cloudsim.New(8)
	if _, err := PlanSpot(c, 1, 0); err == nil {
		t.Error("expected error for zero work")
	}
	if _, err := PlanSpot(c, 0.00001, 5); err == nil {
		t.Error("expected error for an unfillable bid")
	}
}
