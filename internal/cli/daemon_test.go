package cli

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/vfs"
)

// hooks counts what the shell asks of a handler set; the first StartDrain
// closes draining and the first HardStop frees the handler the test has
// parked on release.
type hooks struct {
	startDrains, hardStops atomic.Int32
	draining, release      chan struct{}
}

func newHooks() *hooks {
	return &hooks{draining: make(chan struct{}), release: make(chan struct{})}
}

func (h *hooks) StartDrain() {
	if h.startDrains.Add(1) == 1 {
		close(h.draining)
	}
}
func (h *hooks) HardStop() {
	if h.hardStops.Add(1) == 1 {
		close(h.release)
	}
}
func (h *hooks) DrainSummary() string { return "test" }

// runDaemon starts d.Run on its own goroutine under a cancellable root
// and returns the root's cancel and the channel Run's result arrives on.
func runDaemon(t *testing.T, d *Daemon, h http.Handler, drain time.Duration, dr Drainer) (signal context.CancelFunc, stopped *atomic.Int32, done chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	stopped = new(atomic.Int32)
	done = make(chan error, 1)
	go func() { done <- d.Run(ctx, func() { stopped.Add(1) }, "test", h, drain, dr) }()
	return cancel, stopped, done
}

func waitRun(t *testing.T, done chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// TestRunHardStopsPastTheDrainDeadline: a request still running when the
// deadline expires gets the hard-stop hook, once, and Run returns.
func TestRunHardStopsPastTheDrainDeadline(t *testing.T) {
	d, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hk := newHooks()
	entered := make(chan struct{})
	signal, stopped, done := runDaemon(t, d, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-hk.release
	}), 50*time.Millisecond, hk)

	got := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + d.Addr().String() + "/")
		if err == nil {
			resp.Body.Close()
		}
		got <- err
	}()
	<-entered
	signal()
	if err := waitRun(t, done); err != nil {
		t.Fatalf("Run = %v, want nil after a drain", err)
	}
	if a, b, c := hk.startDrains.Load(), hk.hardStops.Load(), stopped.Load(); a != 1 || b != 1 || c != 1 {
		t.Errorf("StartDrain ×%d, HardStop ×%d, stop ×%d; want one each", a, b, c)
	}
	<-got // the client's request ends one way or the other
	if _, err := net.DialTimeout("tcp", d.Addr().String(), time.Second); err == nil {
		t.Error("still listening after the drain")
	}
}

// TestRunDrainsWithoutHardStop: requests that finish inside the deadline
// are waited for, and the hard-stop hook is never called.
func TestRunDrainsWithoutHardStop(t *testing.T) {
	d, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hk := newHooks()
	entered := make(chan struct{})
	finish := make(chan struct{})
	signal, _, done := runDaemon(t, d, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-finish
		io.WriteString(w, "done")
	}), 10*time.Second, hk)
	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + d.Addr().String() + "/")
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		got <- string(b)
	}()
	<-entered
	signal()
	<-hk.draining
	select {
	case err := <-done:
		t.Fatalf("Run returned %v with a request in flight", err)
	default:
	}
	close(finish)
	if err := waitRun(t, done); err != nil {
		t.Fatal(err)
	}
	if body := <-got; body != "done" || hk.hardStops.Load() != 0 {
		t.Errorf("in-flight request got %q, HardStop ×%d", body, hk.hardStops.Load())
	}
}

// TestRunSurfacesAListenerThatDies: a listener that fails on its own is
// an error to report, not a signal to drain.
func TestRunSurfacesAListenerThatDies(t *testing.T) {
	d, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hk := newHooks()
	_, stopped, done := runDaemon(t, d, http.NotFoundHandler(), time.Second, hk)
	d.ln.Close()
	if err := waitRun(t, done); err == nil {
		t.Fatal("Run = nil after its listener was closed under it")
	}
	if hk.startDrains.Load() != 0 || stopped.Load() != 0 {
		t.Error("a dead listener was drained")
	}
}

// TestSilentPeerIsDisconnected: a peer that connects and sends no request
// is dropped after the header timeout, whichever daemon's handler set is
// behind the shell, and a nil Drainer drains.
func TestSilentPeerIsDisconnected(t *testing.T) {
	fs := vfs.NewFS()
	if err := fs.Add(vfs.BytesFile("f", []byte("the quick brown fox\n"))); err != nil {
		t.Fatal(err)
	}
	files := fs.List()
	srv, err := server.New(context.Background(), scan.SequentialOrder(files), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	worker := dist.NewWorkerServer("w", scan.NewPlan(files, scan.PlanOptions{}))
	for name, h := range map[string]http.Handler{"serve": srv.Handler(), "worker": worker.Handler()} {
		t.Run(name, func(t *testing.T) {
			d, err := Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			d.headerTimeout = 50 * time.Millisecond
			signal, _, done := runDaemon(t, d, h, time.Second, nil)
			conn, err := net.Dial("tcp", d.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			start := time.Now()
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				// A timeout error here is the parent's behaviour for serve:
				// the connection is held for as long as the peer likes.
				t.Fatalf("silent connection: read = %v after %v, want EOF from the server", err, time.Since(start))
			}
			resp, err := http.Get("http://" + d.Addr().String() + "/healthz")
			if err != nil || resp.StatusCode != 200 {
				t.Fatalf("healthz after the silent peer: %v, %v", resp, err)
			}
			resp.Body.Close()
			signal()
			if err := waitRun(t, done); err != nil {
				t.Fatal(err)
			}
		})
	}
}
