package dist

import (
	"context"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/scan"
)

// Measure runs the distributed fused measurement: coordinator-side
// prototypes assembled from the spec, the plan's tasks spread across the
// workers, states folded back in task order. The resulting Measurement
// is bit-identical to core.MeasurePlanCtx over the same plan and
// options — manifest checksums, grep counts, text statistics and
// per-file complexity all — at any worker count, including runs where
// workers died, retried, were quarantined and re-admitted, or where
// tasks were resumed from a checkpoint journal. The one exception is a
// degraded run (Options.AllowPartial with Report.Degraded() true): the
// measurement then covers exactly the non-skipped tasks, and the
// Report's Skipped manifest says what is missing. Errors carry the
// "dist" stage, which says dist once: nothing below Measure — Run, the
// workers, the journal's Append — puts it in its own messages.
func Measure(ctx context.Context, plan *scan.Plan, spec Spec, workers []Worker, opts Options) (*core.Measurement, *Report, error) {
	mk, err := spec.Kernels()
	if err != nil {
		return nil, &Report{}, errs.Stage("dist", err)
	}
	rep, err := Run(ctx, plan, spec, workers, opts, mk.List...)
	if err != nil {
		return nil, rep, errs.Stage("dist", err)
	}
	return mk.Measurement(), rep, nil
}
