// Package par is the repository's single bounded, deterministic
// parallel-execution primitive. Every concurrent fan-out in the tree —
// corpus materialisation, checksum manifests, the grep/POS kernels, the
// workload estimator and the experiment drivers — runs on this pool, so
// there is exactly one concurrency idiom to reason about.
//
// Determinism contract: a fan-out over n tasks produces bit-identical
// results at any worker count, including 1, because
//
//   - each task writes only to its own pre-allocated slot (ForEachCtx),
//   - errors are reported by lowest task index, not completion order,
//   - reductions (SumChunksCtx) combine integer partials in fixed chunk
//     order, and integer addition is associative, and
//   - tasks that need randomness derive a private seed from their index
//     (see stats.SeedFor) instead of sharing a sequential stream.
//
// Error handling is fast-fail: once any task records an error, no new
// indices are dispatched (in-flight tasks still run to completion), so
// wasted work after an early failure is bounded by the worker count
// instead of scaling with n. The reported error is still the one from the
// lowest failing index: claims are issued in index order, so by the time
// any failure is observed every lower index has already been claimed and
// will finish — the lowest failing index always runs.
//
// Both fan-outs (ForEachCtx, SumChunksCtx) additionally stop dispatching
// when the context is cancelled or its deadline expires, returning
// ctx.Err() wrapped in *CancelledError.
//
// Panics inside a task propagate and crash the process, as they would in
// a serial loop.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. The zero value is not useful; construct
// with New. Pools are cheap (two words) and carry no goroutines between
// calls: workers are spawned per fan-out and torn down when it returns,
// so an idle Pool costs nothing.
type Pool struct {
	workers int
}

// New returns a pool running at most `workers` tasks concurrently.
// Zero or negative means runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Default returns a pool sized to the machine (GOMAXPROCS at call time).
func Default() *Pool { return New(0) }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// ForEachCtx runs fn(i) for every i in [0, n), using up to Workers()
// goroutines. Dispatch is fast-fail: after the first recorded error no
// new indices are claimed, though tasks already in flight complete. The
// returned error is the one from the lowest failing index, so the
// outcome does not depend on scheduling. fn must confine its writes to
// per-index state (or otherwise synchronise).
//
// Before claiming each index the worker checks ctx, and once ctx is done
// no new indices are dispatched (in-flight tasks still complete). On
// cancellation it returns ctx.Err() wrapped in *CancelledError — unless
// some dispatched task already failed, in which case the lowest-index
// task error wins. A run that completes without cancellation is
// bit-identical at any worker count.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if cerr := ctx.Err(); cerr != nil {
				return &CancelledError{Err: cerr}
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var stop atomic.Bool
	done := ctx.Done() // nil for a context that can never be cancelled
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	// Lowest failing index wins. Claims are monotonic, so when any task
	// observed a failure, every lower index had already been claimed and
	// ran to completion — the minimum failing index is always present.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return &CancelledError{Err: cerr}
	}
	return nil
}

// SumChunksCtx splits [0, n) into one contiguous range per worker,
// computes chunk(lo, hi) for each range concurrently, and returns the sum
// of the partials in range order. Because the partials are integers, the
// result is bit-identical to a serial accumulation at any worker count.
// The returned error is the one from the lowest-index failing range.
// Chunk dispatch stops once ctx is done, and the cancelled call returns
// *CancelledError.
func (p *Pool) SumChunksCtx(ctx context.Context, n int, chunk func(lo, hi int) (int64, error)) (int64, error) {
	if n <= 0 {
		return 0, nil
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		if cerr := ctx.Err(); cerr != nil {
			return 0, &CancelledError{Err: cerr}
		}
		return chunk(0, n)
	}
	step := (n + w - 1) / w
	ranges := make([][2]int, 0, w)
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		ranges = append(ranges, [2]int{lo, hi})
	}
	partials := make([]int64, len(ranges))
	err := p.ForEachCtx(ctx, len(ranges), func(i int) error {
		v, err := chunk(ranges[i][0], ranges[i][1])
		if err != nil {
			return err
		}
		partials[i] = v
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, v := range partials {
		total += v
	}
	return total, nil
}
