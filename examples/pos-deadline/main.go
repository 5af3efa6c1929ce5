// POS deadline scheduling: the paper's §5.2 study. A corpus of small text
// files is scheduled onto EC2 instances under one- and two-hour deadlines,
// comparing first-fit packing, uniform bins, an under-predicting refit
// model, and the residual-based adjusted deadline. Per-instance execution
// times are drawn as ASCII bars against the deadline, mirroring Figs. 8-9.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/corpus"
	"repro/internal/perfmodel"
	"repro/internal/probe"
	"repro/internal/provision"
	"repro/internal/stats"
	"repro/internal/workload"
)

const seed = 2011

func main() {
	ctx := context.Background()

	// Calibrate model (3) on a nominal instance (§4 protocol, condensed).
	cloud := cloudsim.New(seed)
	inst, err := cloud.LaunchNominal(cloudsim.Small, "us-east-1a")
	if err != nil {
		log.Fatal(err)
	}
	if err := cloud.WaitUntilRunning(inst); err != nil {
		log.Fatal(err)
	}
	harness := probe.NewHarness(cloud, inst, workload.NewPOS(), workload.Local{})
	var probes []probe.Measurement
	dist := corpus.Text400K(1).Sizes
	for _, volume := range []int64{1_000_000, 5_000_000, 20_000_000} {
		files := sample(dist, volume, fmt.Sprintf("cal-%d", volume))
		m, err := probe.MeasureProbeCtx(ctx, harness, probe.Probe{Volume: volume, Files: files})
		if err != nil {
			log.Fatal(err)
		}
		probes = append(probes, m)
	}
	xs, ys := probe.AllRunsPoints([][]probe.Measurement{probes}, 0)
	m3, err := perfmodel.FitAffine(xs, ys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model (3): %v\n", m3)

	// The under-predicting refit, at the paper's Eq.(4)/Eq.(3) slope ratio.
	m4 := &perfmodel.Affine{A: m3.A * 0.725482 / 0.865, B: 3.086}
	adj, err := perfmodel.NewAdjustment(m4, xs, ys, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model (4): slope %.4g; adjustment %v\n\n", m4.A, adj)

	// The workload: the paper's operating point V = 26.1 · f⁻¹(1h).
	x0, err := m3.Invert(3600)
	if err != nil {
		log.Fatal(err)
	}
	workItems := sample(dist, int64(26.1*x0), "workload")

	scenarios := []struct {
		name     string
		model    perfmodel.Model
		deadline float64
		strategy provision.Strategy
		adjusted bool
	}{
		{"D=1h, model (3), first-fit", m3, 3600, provision.FirstFitOriginal, false},
		{"D=1h, model (3), uniform", m3, 3600, provision.UniformBins, false},
		{"D=1h, model (4), uniform", m4, 3600, provision.UniformBins, false},
		{"D=1h, model (4), adjusted", m4, 3600, provision.UniformBins, true},
		{"D=2h, model (3), uniform", m3, 7200, provision.UniformBins, false},
		{"D=2h, model (4), adjusted", m4, 7200, provision.UniformBins, true},
	}
	for _, sc := range scenarios {
		planner := &provision.Planner{Model: sc.model, Rate: 0.085}
		var plan *provision.Plan
		var err error
		if sc.adjusted {
			plan, err = planner.PlanAdjusted(workItems, sc.deadline, adj)
		} else {
			plan, err = planner.PlanDeadline(workItems, sc.deadline, sc.strategy)
		}
		if err != nil {
			log.Fatal(err)
		}
		execCloud := cloudsim.New(stats.SeedFor(seed, sc.name))
		out, err := provision.ExecuteCtx(ctx, execCloud, plan, provision.ExecuteOptions{
			App:     workload.NewPOS(),
			Uniform: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %2d instances  %4.0f instance-h  $%.3f  missed %d/%d\n",
			sc.name, plan.Instances, out.InstanceHours, out.ActualCost, out.Missed, plan.Instances)
		drawBars(out, sc.deadline)
		fmt.Println()
	}
}

// drawBars renders per-instance actual times against the deadline.
func drawBars(out *provision.Outcome, deadline float64) {
	const width = 48
	for _, io := range out.PerInstance {
		n := int(io.ActualS / deadline * width)
		if n > width+12 {
			n = width + 12
		}
		bar := strings.Repeat("█", n)
		marker := ""
		if io.Missed {
			marker = " ← miss"
		}
		fmt.Printf("  %6.0fs %s%s\n", io.ActualS, bar, marker)
	}
	fmt.Printf("  deadline at %.0fs = %d chars\n", deadline, width)
}

func sample(dist corpus.SizeDist, volume int64, salt string) []binpack.Item {
	r := stats.NewRand(seed, salt)
	var items []binpack.Item
	var total int64
	for total < volume {
		s := dist.Sample(r)
		if total+s > volume {
			s = volume - total
		}
		if s <= 0 {
			break
		}
		items = append(items, binpack.Item{Size: s})
		total += s
	}
	return items
}
