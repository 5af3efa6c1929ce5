// Package cli holds the pieces shared by the commands: a root context
// cancelled on SIGINT/SIGTERM, a fatal-error printer that turns the typed
// cancellation errors from internal/errs into a one-line "cancelled after
// stage X" diagnostic instead of a raw error dump, the one corpus opener
// (corpus.go) and the one HTTP daemon loop (daemon.go).
package cli

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/errs"
)

// ExitCodeCancelled is the exit code for signal-initiated termination —
// the shell convention for SIGINT (128+2). Fatal uses it for cancellation
// errors, and long-running commands (serve) exit with it directly after a
// signal-triggered graceful drain, so all commands share one signal
// contract.
const ExitCodeCancelled = 130

// SignalContext returns a root context that is cancelled on SIGINT or
// SIGTERM, plus the stop function releasing the signal registration.
// Commands call this first thing in main and thread the context through
// every Ctx-accepting layer; a second signal during shutdown falls back
// to the default handler (immediate termination). This is the ONLY signal
// wiring in the repository — commands must not install handlers of their
// own, so all seven share one signal path.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Fatal prints the error prefixed with the program name and exits
// non-zero. Cancellations (interrupt or deadline) render as a single
// line naming the last stage reached — "cancelled after stage X" — with
// exit code 130 (the shell convention for SIGINT); a flag combination
// Corpus.Open refuses exits 2; everything else prints the full error
// chain and exits 1.
func Fatal(prog string, err error) {
	if ue := usageError(""); errors.As(err, &ue) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(2)
	}
	if errs.IsCancellation(err) {
		kind := "cancelled"
		if errors.Is(err, errs.ErrDeadline) {
			kind = "deadline exceeded"
		}
		if stage := errs.StageOf(err); stage != "" {
			fmt.Fprintf(os.Stderr, "%s: %s after stage %s\n", prog, kind, stage)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s\n", prog, kind)
		}
		os.Exit(ExitCodeCancelled)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	os.Exit(1)
}

// Seconds reads the value of the seconds flag named name as a
// time.Duration. It refuses, as a usage error Fatal exits 2 on, a value
// that is NaN, infinite, negative or too large for a Duration, all of
// which a plain conversion would turn into a nonsense deadline.
func Seconds(name string, s float64) (time.Duration, error) {
	return seconds(name, s, s >= 0, "from 0")
}

// PositiveSeconds is Seconds for a flag to which 0 means nothing, a
// deadline: it refuses 0 as well.
func PositiveSeconds(name string, s float64) (time.Duration, error) {
	return seconds(name, s, s > 0, "above 0")
}

// seconds converts s after checking it is in range: at least the lower
// bound, which inRange says s meets, and below what a Duration holds.
func seconds(name string, s float64, inRange bool, lower string) (time.Duration, error) {
	// 2^63 ns is exactly representable, so the comparison is exact; NaN
	// fails both comparisons.
	if !(inRange && s*float64(time.Second) < math.MaxInt64) {
		return 0, usageError(fmt.Sprintf("-%s must be a finite number of seconds %s up to %.0f, got %v",
			name, lower, float64(math.MaxInt64)/float64(time.Second), s))
	}
	return time.Duration(s * float64(time.Second)), nil
}

// Count reads the value of the integer flag named name, a count or a
// size where 0 asks for def: it returns def for 0 and refuses a negative
// value as a usage error Fatal exits 2 on, where a layer underneath would
// quietly take it for its own default.
func Count[T int | int64](name string, v, def T) (T, error) {
	switch {
	case v < 0:
		return 0, usageError(fmt.Sprintf("-%s must not be negative (0 asks for the default), got %v", name, v))
	case v == 0:
		return def, nil
	}
	return v, nil
}

// Refused turns a layer's errs.ErrInvalid refusal of what the flag named
// name asked for — a corpus scale past corpus.MaxFiles — into a usage
// error Fatal exits 2 on, naming the flag; any other error passes as is.
func Refused(name string, err error) error {
	if errors.Is(err, errs.ErrInvalid) {
		return usageError(fmt.Sprintf("-%s: %v", name, err))
	}
	return err
}

// Positive checks the value of the flag named name, a scale or other
// multiplier: NaN, infinite, zero or negative values are usage errors
// Fatal exits 2 on.
func Positive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return usageError(fmt.Sprintf("-%s must be a positive finite number, got %v", name, v))
	}
	return nil
}
