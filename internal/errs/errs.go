// Package errs is the repository's typed error taxonomy. Every layer —
// vfs, packstore, the kernels, the pipeline, the CLIs — reports failures
// through a small set of sentinel categories plus a StageError wrapper
// carrying stage and file identity, so callers and tests branch with
// errors.Is/errors.As instead of string-matching rendered messages.
//
// The categories mirror what the paper's workflow actually needs to
// distinguish at runtime:
//
//   - ErrCancelled: the user (or a parent context) aborted the run;
//   - ErrDeadline: the run exceeded its wall-clock deadline D;
//   - ErrCorrupt: stored bytes fail their checksum or structural
//     invariants (pack records, manifests, declared sizes);
//   - ErrNotFound: a named file, member or dataset does not exist;
//   - ErrInvalid: a caller-supplied parameter is out of range;
//   - ErrUnavailable: a resource cannot serve right now — retry
//     elsewhere (a dead scan worker, a draining server).
//
// errs imports nothing from the repository, so any package — including
// internal/par at the very bottom — can depend on it.
package errs

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel categories. Wrap them with fmt.Errorf("...: %w", ...) or
// StageError; test membership with errors.Is.
var (
	// ErrCancelled marks work aborted by context cancellation.
	ErrCancelled = errors.New("cancelled")
	// ErrDeadline marks work aborted because a deadline expired.
	ErrDeadline = errors.New("deadline exceeded")
	// ErrCorrupt marks data failing a checksum or structural invariant.
	ErrCorrupt = errors.New("corrupt data")
	// ErrNotFound marks a missing file, member or dataset.
	ErrNotFound = errors.New("not found")
	// ErrInvalid marks an out-of-range or contradictory parameter.
	ErrInvalid = errors.New("invalid argument")
	// ErrUnavailable marks a resource that exists but cannot serve right
	// now — a worker that stopped answering, a server draining for
	// shutdown. Unlike the other categories it signals "retry elsewhere":
	// the distributed scan re-dispatches a shard when its worker reports
	// (or becomes) unavailable.
	ErrUnavailable = errors.New("unavailable")
)

// FromContext maps a context's termination cause onto the taxonomy:
// context.Canceled becomes ErrCancelled, context.DeadlineExceeded becomes
// ErrDeadline. A nil ctx.Err() (context still live) returns nil. The
// returned error unwraps to both the original context error and the
// sentinel, so errors.Is works against either.
func FromContext(ctx context.Context) error {
	return Categorize(ctx.Err())
}

// Categorize attaches the matching sentinel category to a context error
// (or returns err unchanged when it is not a context error, already
// categorised, or nil).
func Categorize(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCancelled) || errors.Is(err, ErrDeadline):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return &categorized{err: err, category: ErrDeadline}
	case errors.Is(err, context.Canceled):
		return &categorized{err: err, category: ErrCancelled}
	default:
		return err
	}
}

// categorized pairs an underlying error with its sentinel category so
// errors.Is finds both.
type categorized struct {
	err      error
	category error
}

func (c *categorized) Error() string { return c.category.Error() + ": " + c.err.Error() }

// Unwrap exposes both the original error and the category to errors.Is.
func (c *categorized) Unwrap() []error { return []error{c.err, c.category} }

// StageError identifies where a failure happened: the pipeline stage (or
// subsystem operation) and, when one is implicated, the file or member
// being processed. It wraps the underlying error for errors.Is/As.
type StageError struct {
	// Stage names the pipeline stage or operation, e.g. "qualification",
	// "probing", "export-pack", "verify".
	Stage string
	// File is the corpus file, pack member or path involved ("" when the
	// failure is not file-specific).
	File string
	// Err is the underlying cause.
	Err error
}

// Stage wraps err with stage identity (no file). A nil err returns nil.
func Stage(stage string, err error) error {
	if err == nil {
		return nil
	}
	return &StageError{Stage: stage, Err: err}
}

// StageFile wraps err with stage and file identity. A nil err returns nil.
func StageFile(stage, file string, err error) error {
	if err == nil {
		return nil
	}
	return &StageError{Stage: stage, File: file, Err: err}
}

// Error renders "stage: file: cause" (file omitted when empty).
func (e *StageError) Error() string {
	if e.File != "" {
		return fmt.Sprintf("%s: %s: %v", e.Stage, e.File, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Stage, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// StageOf walks err's chain and returns the outermost StageError's stage
// name, or "" when no stage identity is attached — the string the CLIs
// print in their "cancelled after stage X" line.
func StageOf(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// IsCancellation reports whether err is either flavour of abort: user
// cancellation or deadline expiry.
func IsCancellation(err error) bool {
	return errors.Is(err, ErrCancelled) || errors.Is(err, ErrDeadline)
}

// Corrupt wraps err (or creates a new error from a format string when err
// is nil) tagged with ErrCorrupt.
func Corrupt(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorrupt)...)
}

// Invalid builds an ErrInvalid-tagged error.
func Invalid(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrInvalid)...)
}

// Unavailable builds an ErrUnavailable-tagged error.
func Unavailable(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrUnavailable)...)
}
