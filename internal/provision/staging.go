package provision

import (
	"fmt"
	"math"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
)

// Staging-aware planning. The paper's §5 simplifying assumption is that
// "for the grep application, the data is already staged onto EBS storage
// volumes and for the POS tagging application the data can be staged onto
// local storage in a constant time per run (assuming that the bottleneck
// is the maximum throughput available at the upload site)". This file
// makes the assumption explicit and plannable: a StagingModel converts a
// per-instance data assignment into stage-in time and transfer cost, and
// PlanDeadlineStaged budgets the deadline net of staging.

// StagingModel describes where the input comes from and what moving it
// costs. The zero value is the grep assumption: data already on EBS
// volumes, staged in no time and for free.
type StagingModel struct {
	// FixedPerRun is the constant per-run staging time of the paper's POS
	// assumption (upload-site throughput bound, independent of per-instance
	// share because uploads proceed in parallel to all instances).
	FixedPerRun float64 // seconds
	// MBps, when positive, adds volume-proportional staging at this
	// bandwidth per instance (e.g. S3 → local storage).
	MBps float64
	// Pricing charges the transferred bytes; nil means transfer is free
	// (intra-region EBS attach).
	Pricing *cloudsim.TransferPricing
}

// ConstantStaging is the POS assumption: a fixed stage-in time per run.
func ConstantStaging(seconds float64) StagingModel {
	return StagingModel{FixedPerRun: seconds}
}

// StageTime returns the staging seconds for one instance's share.
func (s StagingModel) StageTime(bytes int64) float64 {
	t := s.FixedPerRun
	if s.MBps > 0 && bytes > 0 {
		t += float64(bytes) / (s.MBps * 1e6)
	}
	return t
}

// StageCost returns the transfer dollars for moving bytes split over
// `objects` files into the cloud.
func (s StagingModel) StageCost(bytes int64, objects int) (float64, error) {
	if s.Pricing == nil {
		return 0, nil
	}
	return s.Pricing.TransferCost(bytes, objects, "in")
}

// StagedPlan wraps a Plan with its staging budget.
type StagedPlan struct {
	*Plan
	// StageSeconds is the per-instance staging time budgeted.
	StageSeconds float64
	// TransferCost is the total stage-in dollars.
	TransferCost float64
}

// PlanStaged plans for deadlineSeconds inclusive of staging: the compute
// deadline handed to the model is D minus the staging time of the
// prospective per-instance share. Because staging time depends on the
// share size and the share size on the remaining deadline, the budget is
// solved by fixed-point iteration (the mapping is monotone and contracts
// for every staging model here; a handful of rounds converge).
func (pl *Planner) PlanStaged(items []binpack.Item, deadlineSeconds float64, strategy Strategy, staging StagingModel) (*StagedPlan, error) {
	if pl.Model == nil {
		return nil, fmt.Errorf("provision: planner has no model")
	}
	if deadlineSeconds <= 0 {
		return nil, fmt.Errorf("provision: deadline must be positive, got %v", deadlineSeconds)
	}
	stage := staging.FixedPerRun // volume-free part as the starting guess
	var plan *Plan
	for iter := 0; iter < 8; iter++ {
		compute := deadlineSeconds - stage
		if compute <= 0 {
			return nil, fmt.Errorf("provision: staging (%.1fs) consumes the whole deadline (%.1fs)", stage, deadlineSeconds)
		}
		p, err := pl.plan(items, compute, deadlineSeconds, strategy)
		if err != nil {
			return nil, err
		}
		plan = p
		next := staging.StageTime(maxBinUsed(p.Bins))
		if math.Abs(next-stage) < 0.5 {
			stage = next
			break
		}
		stage = next
	}
	var totalObjects int
	var totalBytes int64
	for _, b := range plan.Bins {
		totalObjects += len(b.Items)
		totalBytes += b.Used
	}
	cost, err := staging.StageCost(totalBytes, totalObjects)
	if err != nil {
		return nil, err
	}
	return &StagedPlan{Plan: plan, StageSeconds: stage, TransferCost: cost}, nil
}

func maxBinUsed(bins []*binpack.Bin) int64 {
	var m int64
	for _, b := range bins {
		if b.Used > m {
			m = b.Used
		}
	}
	return m
}
