// Newslab grep: the paper's §5.1 scenario end to end. A long-tailed HTML
// news corpus is reshaped into 100 MB unit files, a linear performance
// model is fitted from probes (the paper's Eq. (1)), the data is laid out
// over EBS volumes for a one-hour deadline, and the run is executed on the
// simulated cloud. A content-backed sample additionally runs the *real*
// grep — the fused scan behind repro.MeasureCtx, the entry point the
// repository benchmark measures — before and after reshaping to verify
// that reshaping never changes grep's answer.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/perfmodel"
	"repro/internal/probe"
	"repro/internal/provision"
	"repro/internal/workload"
)

func main() {
	const seed = 2011
	ctx := context.Background()

	// --- Part 1: real bytes — reshaping does not change grep output. ---
	sample, err := repro.GenerateCorpusWithContent(repro.HTML18Mil(0.00001), seed) // 180 files
	if err != nil {
		log.Fatal(err)
	}
	merged, _, err := repro.Reshape(sample, 500_000, "unit")
	if err != nil {
		log.Fatal(err)
	}
	grep := repro.MeasureOptions{Patterns: []string{"government"}}
	before, err := repro.MeasureCtx(ctx, sample, grep)
	if err != nil {
		log.Fatal(err)
	}
	after, err := repro.MeasureCtx(ctx, merged, grep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("real grep over %d files: %d matches; over %d unit files: %d matches\n",
		sample.Len(), before.Matches, merged.Len(), after.Matches)

	// --- Part 2: simulator — calibrate, plan the EBS layout, execute. ---
	cloud := cloudsim.New(seed)
	inst, attempts, err := cloud.AcquireQualifiedCtx(ctx, cloudsim.Small, "us-east-1a", 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("qualified %s after %d attempt(s): %.0f MB/s block read\n",
		inst.ID, attempts, inst.Quality.SeqReadMBps)

	// Probe at the 100 MB unit size across escalating volumes (§4).
	harness := probe.NewHarness(cloud, inst, workload.NewGrep(), workload.Local{})
	var probes []probe.Measurement
	for _, volume := range []int64{500_000_000, 1_000_000_000, 2_000_000_000, 5_000_000_000} {
		files := make([]binpack.Item, volume/100_000_000)
		for i := range files {
			files[i].Size = 100_000_000
		}
		m, err := probe.MeasureProbeCtx(ctx, harness, probe.Probe{Volume: volume, UnitSize: 100_000_000, Files: files})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("probe %4.1f GB: %7.2fs ± %.2fs\n", float64(volume)/1e9, m.Mean, m.StdDev)
		probes = append(probes, m)
	}
	xs, ys := probe.AllRunsPoints([][]probe.Measurement{probes}, 100_000_000)
	model, err := perfmodel.FitAffine(xs, ys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted model: %v  [paper Eq.(1): f(x) = -0.974 + 1.324e-8x]\n", model)

	// The paper's layout: 100 GB staged evenly over 100 EBS volumes.
	planner := &provision.Planner{Model: model, Rate: 0.085}
	layout, err := planner.PlanEBS(100_000_000_000, 100, 3600)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EBS layout for 100 GB, D=1h: %d volume(s) of %d bytes each, %d per instance, %d instance(s)\n",
		layout.VolumeCount, layout.PerVolume, layout.VolumesPerInstance, layout.Instances)

	// Build and execute the plan over 100 MB unit files.
	units := make([]binpack.Item, 1000)
	for i := range units {
		units[i] = binpack.Item{Size: 100_000_000}
	}
	plan, err := planner.PlanDeadline(units, 3600, provision.UniformBins)
	if err != nil {
		log.Fatal(err)
	}
	predicted := model.Predict(100_000_000_000)
	outcome, err := provision.ExecuteCtx(ctx, cloud, plan, provision.ExecuteOptions{
		App:     workload.NewGrep(),
		Uniform: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("100 GB grep: predicted %.1fs, makespan %.1fs (%.0f%% error), %d instance(s), $%.2f\n",
		predicted/float64(plan.Instances), outcome.MakespanS,
		100*(outcome.MakespanS-predicted/float64(plan.Instances))/outcome.MakespanS,
		plan.Instances, outcome.ActualCost)
}
