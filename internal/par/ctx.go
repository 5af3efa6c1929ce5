package par

import (
	"context"
	"errors"

	"repro/internal/errs"
)

// CancelledError reports a fan-out stopped by context cancellation or
// deadline expiry before (or while) dispatching its tasks. It wraps the
// context's own error and the matching errs sentinel, so both
//
//	errors.Is(err, context.Canceled)           // or DeadlineExceeded
//	errors.Is(err, errs.ErrCancelled)          // or errs.ErrDeadline
//
// hold. Work already dispatched when the cancellation landed has run to
// completion; no per-slot result written before the stop is torn down.
type CancelledError struct {
	// Err is the context's termination cause (ctx.Err()).
	Err error
}

// Error renders the underlying context error with a par: prefix.
func (e *CancelledError) Error() string { return "par: fan-out cancelled: " + e.Err.Error() }

// Unwrap exposes both the context error and the errs category sentinel,
// making the error errors.Is-clean against either vocabulary.
func (e *CancelledError) Unwrap() []error {
	cat := errs.ErrCancelled
	if errors.Is(e.Err, context.DeadlineExceeded) {
		cat = errs.ErrDeadline
	}
	return []error{e.Err, cat}
}

// ForEachCtx is ForEach with cancellation: before claiming each index the
// worker checks ctx, and once ctx is done no new indices are dispatched
// (in-flight tasks still complete). On cancellation it returns ctx.Err()
// wrapped in *CancelledError — unless some dispatched task already failed,
// in which case the lowest-index task error wins, exactly as in ForEach.
// A run that completes without cancellation is bit-identical to ForEach
// at any worker count.
func (p *Pool) ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return p.forEach(ctx, n, fn)
}

// MapCtx runs fn over [0, n) on the pool and returns the results in index
// order. On error the first (lowest-index) error is returned and the
// results are discarded; a cancelled run returns *CancelledError.
func MapCtx[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.forEach(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
