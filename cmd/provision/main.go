// Command provision computes a deadline-meeting, cost-minimising EC2
// execution plan from a fitted performance model (the paper's §5).
//
// The model is the affine f(x) = intercept + slope·x with x in bytes and
// f in seconds; the paper's published models are:
//
//	grep, 100 MB units (Eq. 1):  -slope 1.324e-8  -intercept -0.974
//	POS tagging (Eq. 3):         -slope 0.865e-4  -intercept 0.327
//
// Usage:
//
//	provision -volume 1000000000 -deadline 3600 -slope 0.865e-4 -intercept 0.327
//	provision -dir ./corpus -deadline 7200 -slope 1.324e-8 -uniform
//	provision -volume 1e9 -deadline 3600 -slope 0.865e-4 -adjust 0.1525
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/binpack"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/perfmodel"
	"repro/internal/provision"
	"repro/internal/vfs"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	var (
		volume    = flag.Float64("volume", 0, "total data volume in bytes (or use -dir)")
		dir       = flag.String("dir", "", "directory whose file sizes define the workload")
		deadline  = flag.Float64("deadline", 3600, "deadline in seconds")
		slope     = flag.Float64("slope", 0.865e-4, "model slope (seconds per byte)")
		intercept = flag.Float64("intercept", 0.327, "model intercept (seconds)")
		rate      = flag.Float64("rate", 0.085, "hourly instance rate in dollars")
		adjust    = flag.Float64("adjust", 0, "deadline-inflation factor a (schedule for D/(1+a))")
		uniform   = flag.Bool("uniform", true, "distribute data uniformly (false = first-fit, original order)")
		unit      = flag.Int64("unit", 1_000_000, "granularity for -volume workloads (bytes per file)")
	)
	flag.Parse()
	if *unit <= 0 {
		fmt.Fprintf(os.Stderr, "provision: -unit must be positive, got %d\n", *unit)
		os.Exit(2)
	}
	if !(*rate >= 0) {
		fmt.Fprintf(os.Stderr, "provision: -rate must be non-negative, got %v\n", *rate)
		os.Exit(2)
	}

	var items []binpack.Item
	switch {
	case *dir != "":
		fs, err := vfs.ImportDir(*dir)
		if err != nil {
			fatal(err)
		}
		items = core.ItemsFromFS(fs)
	case *volume > 0:
		n := int64(*volume) / *unit
		for i := int64(0); i < n; i++ {
			items = append(items, binpack.Item{Size: *unit})
		}
		if rem := int64(*volume) - n**unit; rem > 0 {
			items = append(items, binpack.Item{Size: rem})
		}
	default:
		fmt.Fprintln(os.Stderr, "provision: provide -volume or -dir")
		os.Exit(2)
	}

	// Planning itself is fast; the cancellable part is the workload import
	// above. One check here keeps a Ctrl-C during a large -dir walk from
	// silently producing a plan for a half-read corpus.
	if cerr := errs.FromContext(ctx); cerr != nil {
		fatal(errs.Stage("planning", cerr))
	}

	model := affine(*slope, *intercept)
	planner := &provision.Planner{Model: model, Rate: *rate}
	strategy := provision.FirstFitOriginal
	if *uniform {
		strategy = provision.UniformBins
	}

	var plan *provision.Plan
	var err error
	if *adjust > 0 {
		plan, err = planner.PlanAdjusted(items, *deadline, perfmodel.Adjustment{A: *adjust, MissProb: 0.10})
	} else {
		plan, err = planner.PlanDeadline(items, *deadline, strategy)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model:            %v\n", model)
	fmt.Printf("strategy:         %s (%s)\n", plan.Strategy, provision.StrategyForShape(model.Shape()))
	fmt.Printf("volume:           %d bytes in %d files\n", plan.TotalVolume(), len(items))
	fmt.Printf("deadline:         %.0f s (planned for %.0f s)\n", plan.RequestedDeadline, plan.Deadline)
	fmt.Printf("per-instance cap: %d bytes (f⁻¹ of the planned deadline)\n", plan.PerInstanceCapacity)
	fmt.Printf("instances:        %d (minimum %d)\n", plan.Instances, plan.MinInstances)
	fmt.Printf("instance-hours:   %.0f\n", plan.InstanceHours())
	fmt.Printf("estimated cost:   $%.3f\n", plan.EstimatedCost)
	fmt.Println()
	fmt.Println("bin  bytes        files  predicted")
	for i, b := range plan.Bins {
		fmt.Printf("%-4d %-12d %-6d %.1fs\n", i+1, b.Used, len(b.Items), plan.Predicted[i])
	}
}

func affine(a, b float64) *perfmodel.Affine {
	m, err := perfmodel.FitAffine([]float64{0, 1e9}, []float64{b, b + a*1e9})
	if err != nil {
		fatal(err)
	}
	return m
}

func fatal(err error) {
	cli.Fatal("provision", err)
}
