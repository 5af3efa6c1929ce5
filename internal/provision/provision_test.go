package provision

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/corpus"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// eq3 is the paper's POS model (3): f(x) = 0.327 + 0.865e-4·x with x in
// bytes (the scale that reproduces its 27 instances for ≈1 GB at D=1 h:
// f⁻¹(3600) ≈ 41.6 MB per instance).
func eq3() perfmodel.Model {
	m, err := perfmodel.FitAffine(
		[]float64{0, 1_000_000_000},
		[]float64{0.327, 0.327 + 0.865e-4*1_000_000_000})
	if err != nil {
		panic(err)
	}
	return m
}

// eq4 is the paper's random-sample refit (4): f(x) = 3.086 + 0.725482e-4·x.
func eq4() perfmodel.Model {
	m, err := perfmodel.FitAffine(
		[]float64{0, 1_000_000_000},
		[]float64{3.086, 3.086 + 0.725482e-4*1_000_000_000})
	if err != nil {
		panic(err)
	}
	return m
}

func testItems(n int, size int64) []binpack.Item {
	items := make([]binpack.Item, n)
	for i := range items {
		items[i] = binpack.Item{ID: fmt.Sprintf("f%05d", i), Size: size}
	}
	return items
}

func TestCostFunction(t *testing.T) {
	// D ≥ 1h: r⌈P⌉.
	c, err := Cost(5.3, 2, 0.085)
	if err != nil {
		t.Fatal(err)
	}
	if c != 6*0.085 {
		t.Errorf("cost = %v, want %v", c, 6*0.085)
	}
	// D < 1h: r⌈P/d⌉.
	c, err = Cost(2, 0.5, 0.085)
	if err != nil {
		t.Fatal(err)
	}
	if c != 4*0.085 {
		t.Errorf("cost = %v, want %v", c, 4*0.085)
	}
	if c, _ := Cost(0, 1, 0.085); c != 0 {
		t.Errorf("zero work cost = %v", c)
	}
	if _, err := Cost(-1, 1, 0.085); err == nil {
		t.Error("expected error for negative P")
	}
	if _, err := Cost(1, 0, 0.085); err == nil {
		t.Error("expected error for zero deadline")
	}
}

func TestPlanDeadlineReproducesPaperInstanceCount(t *testing.T) {
	// The paper solves Eq. (3) for D=3600 over its ≈1 GB data set and
	// prescribes 27 instances (⌈26.1⌉). Using the same model over an exact
	// 1.09 GB volume reproduces the arithmetic shape: f⁻¹(3600) ≈ 41.6 MB,
	// so ⌈V/41.6MB⌉ lands in the paper's ballpark.
	pl := NewPlanner(eq3())
	items := testItems(1090, 1_000_000) // 1.09 GB in 1 MB files
	plan, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	x0, _ := eq3().Invert(3600)
	wantMin := int(math.Ceil(1.09e9 / math.Floor(x0)))
	if plan.MinInstances != wantMin {
		t.Errorf("min instances = %d, want %d", plan.MinInstances, wantMin)
	}
	if plan.MinInstances < 24 || plan.MinInstances > 28 {
		t.Errorf("min instances = %d, want ≈27 (paper)", plan.MinInstances)
	}
	if plan.Instances != plan.MinInstances {
		t.Errorf("uniform strategy used %d bins, want exactly %d", plan.Instances, plan.MinInstances)
	}
	// Every uniform bin must fit the deadline according to the model.
	for i, p := range plan.Predicted {
		if p > 3600 {
			t.Errorf("bin %d predicted %v > deadline", i, p)
		}
	}
}

func TestPlanDeadlineFirstFitOriginalOrder(t *testing.T) {
	pl := NewPlanner(eq3())
	items := testItems(500, 2_000_000)
	plan, err := pl.PlanDeadline(items, 3600, FirstFitOriginal)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Instances < plan.MinInstances {
		t.Errorf("instances %d below minimum %d", plan.Instances, plan.MinInstances)
	}
	// First-fit respects capacity: no bin predicted above deadline.
	for i, p := range plan.Predicted {
		if p > 3600 && !plan.Bins[i].Oversized {
			t.Errorf("bin %d predicted %v > deadline", i, p)
		}
	}
	if plan.Strategy != FirstFitOriginal {
		t.Error("strategy not recorded")
	}
}

func TestPlanDeadlineTwoHourUsesFewerInstances(t *testing.T) {
	pl := NewPlanner(eq3())
	items := testItems(1000, 1_000_000)
	oneHour, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	twoHour, err := pl.PlanDeadline(items, 7200, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	if twoHour.Instances >= oneHour.Instances {
		t.Errorf("2h plan uses %d instances, 1h plan %d", twoHour.Instances, oneHour.Instances)
	}
	// Roughly half, like the paper's 27 vs 14.
	ratio := float64(oneHour.Instances) / float64(twoHour.Instances)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("instance ratio 1h/2h = %v, want ≈2", ratio)
	}
}

func TestModel4NeedsFewerInstances(t *testing.T) {
	// The paper: model (4)'s lower slope prescribes 22 instances for D=1h
	// vs model (3)'s 27, and 11 vs 14 for D=2h.
	items := testItems(1090, 1_000_000)
	p3, err := NewPlanner(eq3()).PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := NewPlanner(eq4()).PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Instances >= p3.Instances {
		t.Errorf("model (4) plan %d not below model (3) plan %d", p4.Instances, p3.Instances)
	}
}

func TestPlanValidation(t *testing.T) {
	pl := NewPlanner(eq3())
	if _, err := pl.PlanDeadline(nil, 3600, UniformBins); err == nil {
		t.Error("expected error for no items")
	}
	if _, err := pl.PlanDeadline(testItems(1, 1), 0, UniformBins); err == nil {
		t.Error("expected error for zero deadline")
	}
	if _, err := pl.PlanDeadline(testItems(1, 1), 3600, Strategy(99)); err == nil {
		t.Error("expected error for unknown strategy")
	}
	if _, err := (&Planner{Rate: 1}).PlanDeadline(testItems(1, 1), 3600, UniformBins); err == nil {
		t.Error("expected error for nil model")
	}
	for _, rate := range []float64{-1, math.NaN()} {
		if _, err := (&Planner{Model: eq3(), Rate: rate}).PlanDeadline(testItems(1, 1), 3600, UniformBins); err == nil {
			t.Errorf("expected error for rate %v", rate)
		}
		if _, err := (&Planner{Model: eq3(), Rate: rate}).PlanAdjusted(testItems(1, 1), 3600, perfmodel.Adjustment{A: 0.5}); err == nil {
			t.Errorf("PlanAdjusted: expected error for rate %v", rate)
		}
	}
	// Deadline below the model's intercept admits no data.
	if _, err := pl.PlanDeadline(testItems(1, 1), 0.1, UniformBins); err == nil {
		t.Error("expected error for sub-intercept deadline")
	}
}

func TestPlanInstanceHoursAndCost(t *testing.T) {
	pl := NewPlanner(eq3())
	items := testItems(100, 1_000_000)
	plan, err := pl.PlanDeadline(items, 7200, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.InstanceHours(); got != float64(plan.Instances)*2 {
		t.Errorf("instance hours = %v", got)
	}
	wantCost := float64(plan.Instances) * 2 * 0.085
	if math.Abs(plan.EstimatedCost-wantCost) > 1e-9 {
		t.Errorf("estimated cost = %v, want %v", plan.EstimatedCost, wantCost)
	}
	if plan.TotalVolume() != 100_000_000 {
		t.Errorf("total volume = %d", plan.TotalVolume())
	}
}

func TestPlanAdjustedKeepsUniformWhenSlackSuffices(t *testing.T) {
	// Small inflation: uniform bins over the minimum instances already
	// carry the margin, so the plan must not grow.
	pl := NewPlanner(eq3())
	items := testItems(1090, 1_000_000)
	adj := perfmodel.Adjustment{A: 0.01}
	plan, err := pl.PlanAdjusted(items, 3600, adj)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := pl.PlanDeadline(items, 3600, UniformBins)
	if plan.Instances != base.Instances {
		t.Errorf("adjusted plan grew from %d to %d despite slack", base.Instances, plan.Instances)
	}
	if plan.Deadline != 3600 {
		t.Errorf("deadline rewritten to %v", plan.Deadline)
	}
}

func TestPlanAdjustedDeratesWhenInflationLarge(t *testing.T) {
	// The paper's a = 0.15245: D=3600 derates to 3124 and the plan grows
	// (27 → 30 instance-hours in Fig. 8(d)).
	pl := NewPlanner(eq4())
	items := testItems(1090, 1_000_000)
	adj := perfmodel.Adjustment{A: 0.15245}
	plain, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	adjusted, err := pl.PlanAdjusted(items, 3600, adj)
	if err != nil {
		t.Fatal(err)
	}
	if adjusted.Deadline >= 3600 {
		t.Errorf("deadline not derated: %v", adjusted.Deadline)
	}
	if math.Abs(adjusted.Deadline-3124) > 2 {
		t.Errorf("derated deadline = %v, want ≈3124", adjusted.Deadline)
	}
	if adjusted.Instances <= plain.Instances {
		t.Errorf("adjusted plan %d instances not above plain %d", adjusted.Instances, plain.Instances)
	}
	if adjusted.RequestedDeadline != 3600 {
		t.Errorf("requested deadline = %v", adjusted.RequestedDeadline)
	}
}

func TestStrategyForShape(t *testing.T) {
	for _, s := range []perfmodel.Shape{perfmodel.ShapeLinear, perfmodel.ShapeConvex, perfmodel.ShapeConcave} {
		if StrategyForShape(s) == "" {
			t.Errorf("empty strategy for %v", s)
		}
	}
	if StrategyForShape(perfmodel.ShapeConvex) == StrategyForShape(perfmodel.ShapeConcave) {
		t.Error("convex and concave strategies identical")
	}
}

func TestPlanEBSLayout(t *testing.T) {
	// The paper's grep setup: 100 GB over 100 EBS volumes, Eq. (1) model.
	m, err := perfmodel.FitAffine(
		[]float64{0, 1e11},
		[]float64{-0.974, -0.974 + 1.324e-8*1e11})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(m)
	layout, err := pl.PlanEBS(100_000_000_000, 100, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if layout.PerVolume != 1_000_000_000 {
		t.Errorf("per volume = %d, want 1 GB", layout.PerVolume)
	}
	// f⁻¹(3600) ≈ 272 GB >> 1 GB per volume, so one instance can take all
	// 100 volumes within an hour.
	if layout.Instances != 1 {
		t.Errorf("instances = %d, want 1", layout.Instances)
	}
	// A much tighter deadline forces more instances.
	tight, err := pl.PlanEBS(100_000_000_000, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Instances <= layout.Instances {
		t.Errorf("tight deadline instances = %d, want > %d", tight.Instances, layout.Instances)
	}
	if tight.VolumesPerInstance*tight.Instances < 100 {
		t.Errorf("layout does not cover all volumes: %+v", tight)
	}
}

func TestPlanEBSDeadlineTooTightForUnit(t *testing.T) {
	m, _ := perfmodel.FitAffine([]float64{0, 1e9}, []float64{0, 1000})
	pl := NewPlanner(m)
	// f⁻¹(1s) = 1 MB < V0 = 10 MB → must error with reorganise advice.
	if _, err := pl.PlanEBS(1_000_000_000, 100, 1); err == nil {
		t.Error("expected error when V0 exceeds f⁻¹(D)")
	}
	if _, err := pl.PlanEBS(0, 100, 10); err == nil {
		t.Error("expected error for zero volume")
	}
	if _, err := pl.PlanEBS(10, 100, 10); err == nil {
		t.Error("expected error when volumes outnumber bytes")
	}
}

func TestExecutePlanOutcome(t *testing.T) {
	c := cloudsim.New(31)
	pl := NewPlanner(eq3())
	items := testItems(60, 1_000_000) // 60 MB of POS work
	plan, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecuteCtx(context.Background(), c, plan, ExecuteOptions{App: workload.NewPOS()})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerInstance) != plan.Instances {
		t.Fatalf("outcomes = %d, want %d", len(out.PerInstance), plan.Instances)
	}
	if out.MakespanS <= 0 {
		t.Error("no makespan")
	}
	if out.InstanceHours < float64(plan.Instances) {
		t.Errorf("instance hours = %v < %d", out.InstanceHours, plan.Instances)
	}
	if out.ActualCost <= 0 {
		t.Error("no cost")
	}
	// Clock advanced by the makespan.
	if c.Clock().Now().Seconds() < out.MakespanS {
		t.Error("clock did not advance by makespan")
	}
	for _, io := range out.PerInstance {
		if io.Bytes == 0 || io.ActualS <= 0 || io.PredictedS <= 0 {
			t.Errorf("incomplete outcome: %+v", io)
		}
	}
}

func TestExecuteQualifiedReducesMisses(t *testing.T) {
	// With the quality lottery, slow instances cause deadline misses that
	// qualification avoids. Compare miss counts over the same plan.
	items := testItems(200, 1_000_000)
	pl := NewPlanner(eq3())
	plan, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	lottery, err := ExecuteCtx(context.Background(), cloudsim.New(41), plan, ExecuteOptions{App: workload.NewPOS()})
	if err != nil {
		t.Fatal(err)
	}
	qualified, err := ExecuteCtx(context.Background(), cloudsim.New(41), plan, ExecuteOptions{App: workload.NewPOS(), Qualify: true})
	if err != nil {
		t.Fatal(err)
	}
	if qualified.Missed > lottery.Missed {
		t.Errorf("qualification increased misses: %d vs %d", qualified.Missed, lottery.Missed)
	}
	for _, io := range qualified.PerInstance {
		if io.Quality == "slow" {
			t.Error("qualified execution used a slow instance")
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	c := cloudsim.New(1)
	plan := &Plan{}
	if _, err := ExecuteCtx(context.Background(), c, plan, ExecuteOptions{}); err == nil {
		t.Error("expected error for missing app")
	}
}

func TestExecuteComplexityScalesRuntime(t *testing.T) {
	items := testItems(20, 1_000_000)
	pl := NewPlanner(eq3())
	plan, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ExecuteCtx(context.Background(), cloudsim.New(7), plan, ExecuteOptions{App: workload.NewPOS(), Complexity: 1})
	if err != nil {
		t.Fatal(err)
	}
	complex, err := ExecuteCtx(context.Background(), cloudsim.New(7), plan, ExecuteOptions{App: workload.NewPOS(), Complexity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if complex.MakespanS < 1.7*plain.MakespanS {
		t.Errorf("complexity 2 makespan %v not ≈2x plain %v", complex.MakespanS, plain.MakespanS)
	}
}

// End-to-end: the Fig. 8(a) vs 8(b) comparison — uniform bins miss the
// deadline no more often than first-fit original order at equal cost.
func TestUniformBinsReduceMissRisk(t *testing.T) {
	fs, err := corpus.Generate(corpus.Text400K(0.01), 51) // 4000 files
	if err != nil {
		t.Fatal(err)
	}
	var items []binpack.Item
	for _, f := range fs.List() {
		items = append(items, binpack.Item{ID: f.Name, Size: f.Size})
	}
	pl := NewPlanner(eq3())
	const d = 120 // tight 2-minute deadline for the small volume
	ff, err := pl.PlanDeadline(items, d, FirstFitOriginal)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := pl.PlanDeadline(items, d, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	outFF, err := ExecuteCtx(context.Background(), cloudsim.New(52), ff, ExecuteOptions{App: workload.NewPOS(), Qualify: true})
	if err != nil {
		t.Fatal(err)
	}
	outUni, err := ExecuteCtx(context.Background(), cloudsim.New(52), uni, ExecuteOptions{App: workload.NewPOS(), Qualify: true})
	if err != nil {
		t.Fatal(err)
	}
	if outUni.Missed > outFF.Missed {
		t.Errorf("uniform bins missed %d > first-fit %d", outUni.Missed, outFF.Missed)
	}
	// Uniform spreads load: its makespan must not exceed first-fit's worst.
	if outUni.MakespanS > outFF.MakespanS*1.1 {
		t.Errorf("uniform makespan %v worse than first-fit %v", outUni.MakespanS, outFF.MakespanS)
	}
}
