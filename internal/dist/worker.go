package dist

import (
	"context"
	"slices"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/scan"
)

// ScanRequest assigns one plan task to a worker. PlanFP is the
// coordinator's plan fingerprint: a worker that derived a different plan
// from its own corpus view must refuse (ErrInvalid) rather than scan the
// wrong files — the guard that turns silent divergence into a loud
// preflight failure.
type ScanRequest struct {
	PlanFP uint64 `json:"plan_fp"`
	Spec   Spec   `json:"spec"`
	// Task indexes the shared plan's task list.
	Task int `json:"task"`
}

// ScanResponse carries one completed task's kernel states: one snapshot
// per kernel, in registration (spec) order. It crosses the wire as one
// record (record.go); States alias the buffer the record was framed in
// (Local) or read into (HTTPWorker).
type ScanResponse struct {
	Task   int
	States [][]byte

	// release, when set, hands the buffer States alias back for reuse.
	// The coordinator calls it exactly once, after the states are
	// restored and merged or when it drops the answer as a duplicate;
	// States must not be read after it. Every other path leaves the
	// buffer to the GC.
	release func()
}

// Worker executes plan tasks. Scan is synchronous — one task in, its
// kernel states out — and must be safe for concurrent calls: the
// coordinator never sends a worker more than one task at a time, but a
// stolen task's original owner may still be running it. Scan must
// return promptly once its context is cancelled: that is how the
// coordinator stops the losing copy of a stolen task, and Run waits for
// it.
//
// Error taxonomy: ErrUnavailable (or a transport failure, which
// HTTPWorker maps onto it) means the worker is gone and its tasks
// re-dispatchable; ErrInvalid means the request itself is wrong (plan
// mismatch, bad spec) and retrying elsewhere would fail identically;
// anything else is a scan failure surfaced as-is.
type Worker interface {
	Name() string
	Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error)
}

// Local is an in-process worker over a plan: the -workers N
// single-machine mode and the test double for the distributed engine. It
// builds its kernel prototypes once (automaton and lexicon construction
// amortised across tasks) and forks them per task.
type Local struct {
	name   string
	plan   *scan.Plan
	planFP uint64
	protos *core.MeasureKernels
	// recordSize is the largest record appendScan has framed: how much
	// room it reserves before encoding the next one.
	recordSize atomic.Int64

	// fault, when set, runs before each task scan — the chaos-injection
	// seam (fault.Injector.TaskKill) and the test seam for worker death
	// and slow-worker scenarios. A non-nil error aborts the task with it.
	fault func(ctx context.Context, task int) error
}

// SetFault installs a per-task fault hook: it runs before each task
// scan, and a non-nil error aborts the attempt with it. The chaos
// harness installs fault.Injector.TaskKill here.
func (l *Local) SetFault(f func(ctx context.Context, task int) error) { l.fault = f }

// NewLocal builds an in-process worker over the plan, with kernels
// assembled from the spec.
func NewLocal(name string, plan *scan.Plan, spec Spec) (*Local, error) {
	protos, err := spec.Kernels()
	if err != nil {
		return nil, err
	}
	return &Local{name: name, plan: plan, planFP: plan.Fingerprint(), protos: protos}, nil
}

// Name implements Worker.
func (l *Local) Name() string { return l.name }

// Scan implements Worker: it executes the task's slice of the plan
// through fresh forks of the prototypes and frames their states into one
// record buffer of the task's own, which the returned states alias.
func (l *Local) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	rec, err := l.appendScan(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	task, states, _, err := parseRecord(rec)
	if err != nil {
		return nil, err
	}
	return &ScanResponse{Task: task, States: states}, nil
}

// appendScan executes the task and appends its record to dst, each
// kernel's snapshot encoded straight into its place: the one encode path
// of the in-process answer and the daemon's, which passes a pooled
// buffer. dst is first grown to the largest record this worker has
// framed, so a buffer of its own costs a task one allocation, and a
// reused one none.
func (l *Local) appendScan(ctx context.Context, req *ScanRequest, dst []byte) ([]byte, error) {
	kernels, err := l.scanTask(ctx, req)
	if err != nil {
		return nil, err
	}
	start := len(dst)
	dst, err = frameRecord(slices.Grow(dst, int(l.recordSize.Load())), req.Task, len(kernels), func(dst []byte, i int) ([]byte, error) {
		return scan.AppendKernelSnapshot(dst, kernels[i])
	})
	if err != nil {
		return nil, err
	}
	if n := int64(len(dst) - start); n > l.recordSize.Load() {
		l.recordSize.Store(n)
	}
	return dst, nil
}

// scanTask checks the request against the worker's plan and executes
// the task through fresh forks of the prototypes, which it returns.
func (l *Local) scanTask(ctx context.Context, req *ScanRequest) ([]scan.Kernel, error) {
	if req.PlanFP != l.planFP {
		return nil, errs.Invalid("plan fingerprint %016x, worker has %016x", req.PlanFP, l.planFP)
	}
	if req.Task < 0 || req.Task >= len(l.plan.Tasks) {
		return nil, errs.Invalid("task %d out of range (plan has %d)", req.Task, len(l.plan.Tasks))
	}
	if l.fault != nil {
		if err := l.fault(ctx, req.Task); err != nil {
			return nil, err
		}
	}
	kernels := make([]scan.Kernel, len(l.protos.List))
	for i, k := range l.protos.List {
		kernels[i] = k.Fork()
	}
	if err := scan.Execute(ctx, l.plan, l.plan.Tasks[req.Task:req.Task+1], scan.Options{}, kernels...); err != nil {
		return nil, err
	}
	return kernels, nil
}
