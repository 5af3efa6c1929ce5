package scan

import (
	"context"

	"repro/internal/fnv64"
)

// Plan is the shard-assignment half of a scan, split from execution so
// the two can live on different sides of a process boundary: a
// coordinator builds the plan once, hands out task indices, and workers
// execute their slices as a pure function of (plan, tasks, kernels).
// Sources hold every input in final scan order (SequentialOrder); Tasks
// partitions that slice into contiguous ranges, one per pack shard —
// the paper's unit of physical locality — with shard-less runs chunked
// by declared size. Executing all tasks in order is, by construction,
// exactly Run over Sources: same files, same order, same block splits,
// so the engine's determinism contract extends to any partitioning of
// the task list.
type Plan struct {
	Sources []Source
	Tasks   []Task
}

// Task is one contiguous slice of a Plan's sources: the half-open index
// range [Lo, Hi) and its total declared bytes (the load-balancing
// weight).
type Task struct {
	// Shard is the pack path the range belongs to ("" for shard-less
	// sources) — diagnostic only; the range is what executes.
	Shard string
	// Lo and Hi bound the half-open range into Plan.Sources.
	Lo, Hi int
	// Bytes is the range's total declared size.
	Bytes int64
}

// DefaultTaskBytes caps a shard-less task's declared bytes: small enough
// that a handful of workers can balance a modest corpus, large enough
// that per-task overhead (a fork, a snapshot, one HTTP round trip in the
// distributed engine) stays amortised.
const DefaultTaskBytes = 4 << 20

// PlanOptions configures task formation.
type PlanOptions struct {
	// TaskBytes caps the declared bytes per task for sources without
	// shard locality (0 = DefaultTaskBytes); a single oversized file
	// still forms its own task — files are never split. Sharded sources
	// ignore it: one shard is one task.
	TaskBytes int64
}

// NewPlan arranges the sources with SequentialOrder and partitions them
// into tasks: every contiguous run of one shard becomes one task, and
// shard-less runs are chunked at file granularity so no task exceeds
// TaskBytes (except a lone oversized file). The partitioning is a pure
// function of the source list, so coordinator and workers that load the
// same corpus derive the same plan — Fingerprint pins that agreement.
func NewPlan(srcs []Source, opts PlanOptions) *Plan {
	taskBytes := opts.TaskBytes
	if taskBytes <= 0 {
		taskBytes = DefaultTaskBytes
	}
	ordered := SequentialOrder(srcs)
	p := &Plan{Sources: ordered}
	i := 0
	for i < len(ordered) {
		shard := ordered[i].Shard
		t := Task{Shard: shard, Lo: i}
		if shard != "" {
			for i < len(ordered) && ordered[i].Shard == shard {
				t.Bytes += ordered[i].Size
				i++
			}
		} else {
			for i < len(ordered) && ordered[i].Shard == "" {
				if i > t.Lo && t.Bytes+ordered[i].Size > taskBytes {
					break
				}
				t.Bytes += ordered[i].Size
				i++
			}
		}
		t.Hi = i
		p.Tasks = append(p.Tasks, t)
	}
	return p
}

// Fingerprint folds the plan's identity — every source's name, declared
// size and physical location, plus the task boundaries — into one
// FNV-64a value. A coordinator sends it ahead of work so a worker that
// derived a different plan (different corpus, different order, different
// chunking) refuses instead of silently computing the wrong slices.
// Content is deliberately excluded: the checksums themselves verify
// content, and hashing it here would cost a full corpus read at plan
// time.
func (p *Plan) Fingerprint() uint64 {
	h := fnv64.FoldU64(fnv64.Offset, uint64(len(p.Sources)))
	for i := range p.Sources {
		s := &p.Sources[i]
		h = fnv64.FoldString(h, s.Name)
		h = fnv64.FoldString(h, s.Shard)
		h = fnv64.FoldU64(h, uint64(s.Size))
		h = fnv64.FoldU64(h, uint64(s.Offset))
	}
	h = fnv64.FoldU64(h, uint64(len(p.Tasks)))
	for _, t := range p.Tasks {
		h = fnv64.FoldU64(h, uint64(int64(t.Lo)))
		h = fnv64.FoldU64(h, uint64(int64(t.Hi)))
	}
	return h
}

// Execute scans the given tasks' sources, in the given order, through
// the kernels — a pure function of (plan, tasks, kernels): no hidden
// state, so the same call on any machine that holds the same plan
// produces bit-identical kernel accumulations. Executing a plan's full
// task list equals Run over its Sources.
func Execute(ctx context.Context, p *Plan, tasks []Task, opts Options, kernels ...Kernel) error {
	total := 0
	for _, t := range tasks {
		total += t.Hi - t.Lo
	}
	srcs := make([]Source, 0, total)
	for _, t := range tasks {
		srcs = append(srcs, p.Sources[t.Lo:t.Hi]...)
	}
	return Run(ctx, srcs, opts, kernels...)
}
