package cli

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"
)

// Daemon is the one HTTP shell serve and worker run their handler sets
// behind: a bound listener, the server-side limits, and the signal →
// drain → exit path. Body limits live with the decoder (errs.DecodeJSON);
// admission is the resident server's own.
type Daemon struct {
	ln net.Listener
	// headerTimeout disconnects a peer that connects and sends no
	// request; a field so the shell's tests need not wait ten seconds.
	headerTimeout time.Duration
}

// Listen binds addr — before the handler set is built, because a handler
// may be named after the bound address (worker -addr :0).
func Listen(addr string) (*Daemon, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Daemon{ln: ln, headerTimeout: 10 * time.Second}, nil
}

// Addr returns the bound address, for the "listening on" line.
func (d *Daemon) Addr() net.Addr { return d.ln.Addr() }

// Drainer is what a handler set with admission adds to the drain: stop
// admitting when the signal arrives, cancel what is still running when
// the deadline expires, and account for itself on the last line.
type Drainer interface {
	StartDrain()
	HardStop()
	DrainSummary() string
}

// Run serves h until ctx — the SignalContext root — is done, then drains:
// stop releases the signal registration so a second signal kills at once,
// dr (nil when the handler set has nothing to add) stops admitting,
// in-flight requests get up to drain, and past that dr is hard-stopped
// and the connections closed. It returns nil once drained — the caller
// exits ExitCodeCancelled — or the listener's error if it died on its
// own, with nothing drained. Progress lines go to stderr under prog.
func (d *Daemon) Run(ctx context.Context, stop context.CancelFunc, prog string, h http.Handler, drain time.Duration, dr Drainer) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: d.headerTimeout}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(d.ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "%s: signal received, draining (deadline %.0fs)\n", prog, drain.Seconds())
	if dr != nil {
		dr.StartDrain()
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain deadline exceeded, cancelling in-flight requests\n", prog)
		if dr != nil {
			dr.HardStop()
		}
		srv.Close()
	}
	<-served
	summary := ""
	if dr != nil {
		summary = " (" + dr.DrainSummary() + ")"
	}
	fmt.Fprintf(os.Stderr, "%s: drained%s\n", prog, summary)
	return nil
}
