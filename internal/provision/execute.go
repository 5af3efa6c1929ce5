package provision

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/errs"
	"repro/internal/workload"
)

// InstanceOutcome is the result of one instance executing its bin.
type InstanceOutcome struct {
	InstanceID string
	Bytes      int64
	Files      int
	PredictedS float64
	ActualS    float64
	Missed     bool // actual exceeded the requested deadline
	Quality    string
}

// Outcome is the result of executing a plan on the simulated cloud, the
// data behind the bars of Figs. 8 and 9.
type Outcome struct {
	PerInstance []InstanceOutcome
	// MakespanS is the longest per-instance elapsed time in seconds.
	MakespanS float64
	// Missed counts instances that exceeded the requested deadline.
	Missed int
	// InstanceHours is the billed hours summed over instances.
	InstanceHours float64
	// ActualCost bills each instance its own running time (⌈h⌉·r).
	ActualCost float64
	// Deadline echoes the plan's requested deadline in seconds.
	Deadline float64
}

// ExecuteOptions configures plan execution.
type ExecuteOptions struct {
	App  workload.App
	Zone string
	// Qualify runs the §4 bonnie++ acquisition loop per instance instead
	// of accepting the quality lottery (the paper's plans assume uniform
	// well-performing instances; reality differs — this is the knob).
	Qualify bool
	// Uniform launches idealised nominal-quality instances, the paper's
	// §5 simplifying assumption. Overrides Qualify.
	Uniform bool
	// Complexity is the content complexity applied to every unit file
	// (1.0 default).
	Complexity float64
}

// ExecuteCtx launches one small instance per bin (the paper's choice as
// "most common and most cost effective", §3.1) and simulates them
// processing their data in parallel from instance-local storage. The cloud clock advances by the makespan once at
// the end; billing is computed per instance from its own elapsed time
// (pending time is free, every started hour bills in full). The context is
// checked before each bin's instance launch (and threaded through
// qualification and the per-bin estimate), so an abort lands within one
// bin of the cancel and the virtual clock is never advanced for a run
// that did not complete.
func ExecuteCtx(ctx context.Context, c *cloudsim.Cloud, plan *Plan, opts ExecuteOptions) (*Outcome, error) {
	if opts.App == nil {
		return nil, errs.Invalid("provision: ExecuteOptions.App is required")
	}
	if opts.Zone == "" {
		opts.Zone = c.Region().Zones[0]
	}
	if opts.Complexity <= 0 {
		opts.Complexity = 1
	}
	out := &Outcome{Deadline: plan.RequestedDeadline}
	var makespan float64
	for i, bin := range plan.Bins {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return nil, errs.Stage("execution", cerr)
		}
		var in *cloudsim.Instance
		var err error
		switch {
		case opts.Uniform:
			in, err = c.LaunchNominal(cloudsim.Small, opts.Zone)
			if err == nil {
				err = c.WaitUntilRunning(in)
			}
		case opts.Qualify:
			in, _, err = c.AcquireQualifiedCtx(ctx, cloudsim.Small, opts.Zone, 25)
		default:
			in, err = c.Launch(cloudsim.Small, opts.Zone)
			if err == nil {
				err = c.WaitUntilRunning(in)
			}
		}
		if err != nil {
			return nil, err
		}
		items := make([]workload.Item, 0, len(bin.Items))
		for _, it := range bin.Items {
			items = append(items, workload.Item{Size: it.Size, Complexity: opts.Complexity})
		}
		elapsed, err := workload.EstimateCtx(ctx, in, opts.App, items, nil, fmt.Sprintf("plan-bin-%d", i))
		if err != nil {
			return nil, err
		}
		actual := elapsed.Seconds()
		hours := cloudsim.BillHours(elapsed)
		io := InstanceOutcome{
			InstanceID: in.ID,
			Bytes:      bin.Used,
			Files:      len(bin.Items),
			PredictedS: plan.Predicted[i],
			ActualS:    actual,
			Missed:     actual > plan.RequestedDeadline,
			Quality:    in.Quality.Grade(),
		}
		out.PerInstance = append(out.PerInstance, io)
		if io.Missed {
			out.Missed++
		}
		out.InstanceHours += hours
		out.ActualCost += hours * in.Type.HourlyRate
		if actual > makespan {
			makespan = actual
		}
	}
	out.MakespanS = makespan
	if err := c.Clock().Advance(time.Duration(makespan * float64(time.Second))); err != nil {
		return nil, err
	}
	return out, nil
}
