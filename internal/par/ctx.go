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
