// Quickstart: run the paper's full pipeline on a small synthetic corpus —
// qualify an instance, probe the application across unit file sizes, fit a
// performance model, reshape the data, build a deadline plan, and execute
// it on the simulated cloud.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// A small text corpus: ~800 files, ≈1.7 MB (0.2% of the paper's set).
	corpus, err := repro.GenerateCorpus(repro.Text400K(0.002), 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d files, %d bytes\n", corpus.Len(), corpus.TotalSize())

	pipeline, err := repro.NewPipeline(repro.PipelineConfig{
		Seed:            42,
		App:             repro.NewPOSApp(),
		DeadlineSeconds: 120, // process everything within two minutes
		InitialVolume:   100_000,
		MaxVolume:       1_500_000,
		S0:              10_000,
		Multiples:       []int{10},
	})
	if err != nil {
		log.Fatal(err)
	}

	result, err := pipeline.RunCtx(ctx, corpus)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qualified instance after %d attempt(s): %s (%s)\n",
		result.QualificationAttempts, result.Instance.ID, result.Instance.Quality.Grade())

	unit := "original segmentation"
	if result.PreferredUnit > 0 {
		unit = fmt.Sprintf("%d-byte units", result.PreferredUnit)
	}
	fmt.Printf("preferred shape: %s\n", unit)
	fmt.Printf("performance model: %v\n", result.Model)
	fmt.Printf("deadline adjustment: %v\n", result.Adjustment)
	fmt.Printf("plan: %d instances, %.0f instance-hours, est. $%.3f\n",
		result.Plan.Instances, result.Plan.InstanceHours(), result.Plan.EstimatedCost)

	outcome, err := pipeline.ExecuteCtx(ctx, result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: makespan %.1fs, %d/%d instances missed the deadline, actual cost $%.3f\n",
		outcome.MakespanS, outcome.Missed, len(outcome.PerInstance), outcome.ActualCost)
}
