// Package dist is the coordinator–worker engine over the fused scan: it
// distributes a scan plan's tasks (pack shards, the paper's unit of
// physical locality) across N workers and folds their serialized kernel
// states back into coordinator-side prototypes, bit-identical to running
// the whole plan in one process.
//
// The engine leans on three contracts established below it:
//
//   - scan.Plan splits planning from execution, so coordinator and
//     workers agree on "task i means exactly these files in this order"
//     and a plan fingerprint rejects disagreement before any scanning;
//   - scan.StateCodec makes a kernel's completed accumulation portable,
//     and the Merge contract (fold the other's entire accumulation,
//     drain it) makes a restored shard-sized kernel fold exactly like an
//     engine-forked per-file one;
//   - the integer folds inside every production kernel are associative,
//     so folding per-task accumulations in task order is bit-identical
//     to folding per-file results in file order — the scan engine's
//     determinism contract survives the process boundary.
//
// The coordinator dispatches one task per worker round trip, keeps a
// merge frontier that folds results strictly in task order as they
// arrive, lets idle workers steal (speculatively re-run) a task that has
// become a straggler — cancelling whichever copy loses — and
// re-dispatches the tasks of workers that fail (transport failure or
// errs.ErrUnavailable). Workers are either in-process (Local — tests,
// and the -workers N single-machine mode) or remote over HTTP
// (HTTPWorker ↔ WorkerServer over the errs HTTP edge: a JSON
// request out, one checksummed binary record of kernel states back).
package dist

import "repro/internal/core"

// Spec selects the kernels of a distributed measurement — the wire form
// of core.MeasureOptions. Both sides build their kernel sets from the
// same spec via core.NewMeasureKernels, which is what makes a worker's
// snapshots restorable into the coordinator's forks: configuration
// (automata, lexicons) travels as the spec, never as state.
type Spec struct {
	// Patterns adds the multi-pattern match kernel.
	Patterns []string `json:"patterns,omitempty"`
	// FoldCase makes the pattern match ASCII case-insensitive.
	FoldCase bool `json:"fold_case,omitempty"`
	// Complexity gives the analyzer kernel a lexicon (per-file POS
	// complexity).
	Complexity bool `json:"complexity,omitempty"`
}

// MeasureOptions returns the single-node options equivalent of the spec.
func (s Spec) MeasureOptions() core.MeasureOptions {
	return core.MeasureOptions{
		Patterns:   s.Patterns,
		FoldCase:   s.FoldCase,
		Complexity: s.Complexity,
	}
}

// Kernels assembles the spec's kernel set. Every participant — the
// coordinator's prototypes, each worker's per-task forks — comes from
// this one constructor.
func (s Spec) Kernels() (*core.MeasureKernels, error) {
	return core.NewMeasureKernels(s.MeasureOptions())
}
