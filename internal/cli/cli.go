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
	"os"
	"os/signal"
	"syscall"

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
