package provision

import (
	"testing"

	"repro/internal/cloudsim"
)

// s3Staging stages from S3 at the given per-instance bandwidth with
// transfer pricing applied.
func s3Staging(mbps float64) StagingModel {
	p := cloudsim.DefaultTransferPricing
	return StagingModel{MBps: mbps, Pricing: &p}
}

func TestStagingModelTimes(t *testing.T) {
	if got := (StagingModel{}).StageTime(1_000_000_000); got != 0 {
		t.Errorf("EBS staging time = %v, want 0", got)
	}
	if got := ConstantStaging(120).StageTime(1_000_000_000); got != 120 {
		t.Errorf("constant staging = %v, want 120", got)
	}
	s3 := s3Staging(40)
	// 400 MB at 40 MB/s = 10 s.
	if got := s3.StageTime(400_000_000); got != 10 {
		t.Errorf("S3 staging = %v, want 10", got)
	}
}

func TestStagingCosts(t *testing.T) {
	free, err := (StagingModel{}).StageCost(1_000_000_000, 100)
	if err != nil || free != 0 {
		t.Errorf("EBS staging cost = %v, %v", free, err)
	}
	paid, err := s3Staging(40).StageCost(10_000_000_000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if paid <= 0 {
		t.Error("S3 staging should cost money")
	}
}

func TestPlanStagedBudgetsDeadline(t *testing.T) {
	pl := NewPlanner(eq3())
	items := testItems(500, 1_000_000) // 500 MB of POS work

	plain, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := pl.PlanStaged(items, 3600, UniformBins, ConstantStaging(600))
	if err != nil {
		t.Fatal(err)
	}
	// Ten minutes of staging shrink the compute window → more instances.
	if staged.Instances <= plain.Instances {
		t.Errorf("staged plan %d instances not above plain %d", staged.Instances, plain.Instances)
	}
	if staged.StageSeconds != 600 {
		t.Errorf("stage seconds = %v", staged.StageSeconds)
	}
	// Staging plus the worst predicted compute must fit the deadline.
	var worst float64
	for _, p := range staged.Predicted {
		if p > worst {
			worst = p
		}
	}
	if staged.StageSeconds+worst > 3600 {
		t.Errorf("staging %v + compute %v exceeds the deadline", staged.StageSeconds, worst)
	}
	if staged.TransferCost != 0 {
		t.Errorf("constant staging has no transfer cost, got %v", staged.TransferCost)
	}
}

func TestPlanStagedVolumeDependentConverges(t *testing.T) {
	pl := NewPlanner(eq3())
	items := testItems(500, 1_000_000)
	staged, err := pl.PlanStaged(items, 3600, UniformBins, s3Staging(40))
	if err != nil {
		t.Fatal(err)
	}
	// Fixed point: the budgeted staging time matches the realised max bin.
	want := s3Staging(40).StageTime(maxBinUsed(staged.Bins))
	if diff := staged.StageSeconds - want; diff < -1 || diff > 1 {
		t.Errorf("fixed point off: budgeted %v, realised %v", staged.StageSeconds, want)
	}
	if staged.TransferCost <= 0 {
		t.Error("S3 staging plan has no transfer cost")
	}
}

func TestPlanStagedImpossible(t *testing.T) {
	pl := NewPlanner(eq3())
	items := testItems(10, 1_000_000)
	if _, err := pl.PlanStaged(items, 300, UniformBins, ConstantStaging(400)); err == nil {
		t.Error("expected error when staging exceeds the deadline")
	}
	if _, err := pl.PlanStaged(items, 0, UniformBins, StagingModel{}); err == nil {
		t.Error("expected error for zero deadline")
	}
	if _, err := (&Planner{Rate: 1}).PlanStaged(items, 100, UniformBins, StagingModel{}); err == nil {
		t.Error("expected error for nil model")
	}
}

func TestPlanStagedEBSEquivalentToPlain(t *testing.T) {
	pl := NewPlanner(eq3())
	items := testItems(300, 1_000_000)
	plain, err := pl.PlanDeadline(items, 3600, UniformBins)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := pl.PlanStaged(items, 3600, UniformBins, StagingModel{})
	if err != nil {
		t.Fatal(err)
	}
	if staged.Instances != plain.Instances {
		t.Errorf("zero staging changed the plan: %d vs %d", staged.Instances, plain.Instances)
	}
}
