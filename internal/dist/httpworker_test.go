package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/retry"
)

// TestHTTPWorkersBitIdentical runs the distributed measurement over real
// HTTP round trips (two worker daemons on loopback) and checks the
// output equals the single-node fused scan bit for bit.
func TestHTTPWorkersBitIdentical(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)

	var workers []Worker
	for _, name := range []string{"w0", "w1"} {
		ts := httptest.NewServer(NewWorkerServer(name, p).Handler())
		defer ts.Close()
		workers = append(workers, NewHTTPWorker(name, ts.URL))
	}

	m, rep, err := Measure(context.Background(), p, spec, workers, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, m, want)
	won := 0
	for _, s := range rep.Workers {
		won += s.Won
	}
	if won != len(p.Tasks) {
		t.Errorf("workers won %d tasks, plan has %d", won, len(p.Tasks))
	}
}

// abortOnce aborts the first /v1/scan request mid-response — the HTTP
// spelling of killing a worker mid-flight: the client sees a dead
// connection, not an error document.
type abortOnce struct {
	inner http.Handler
	mu    sync.Mutex
	done  bool
}

func (a *abortOnce) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a.mu.Lock()
	first := !a.done
	a.done = true
	a.mu.Unlock()
	if first && r.URL.Path == "/v1/scan" {
		panic(http.ErrAbortHandler)
	}
	a.inner.ServeHTTP(w, r)
}

// TestHTTPWorkerKilledMidFlight aborts one HTTP worker's connection in
// the middle of its first task; the coordinator must map the transport
// failure onto ErrUnavailable and — since the daemon itself survives —
// retry the task in place rather than writing the worker off. The run
// stays bit-identical and nobody dies.
func TestHTTPWorkerKilledMidFlight(t *testing.T) {
	spec := Spec{Patterns: []string{"error"}}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)

	died := make(chan struct{})
	flakySrv := httptest.NewServer(&notifyAbort{abort: &abortOnce{inner: NewWorkerServer("flaky", p).Handler()}, died: died})
	defer flakySrv.Close()
	steadySrv := httptest.NewServer(NewWorkerServer("steady", p).Handler())
	defer steadySrv.Close()

	flaky := NewHTTPWorker("flaky", flakySrv.URL)
	steady := &gatedHTTPWorker{HTTPWorker: NewHTTPWorker("steady", steadySrv.URL), gate: died}

	opts := Options{Retry: retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}}
	m, rep, err := Measure(context.Background(), p, spec, []Worker{flaky, steady}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, m, want)
	if rep.Retries < 1 {
		t.Errorf("Retries = %d, want >= 1 (aborted attempt retried in place)", rep.Retries)
	}
	for _, s := range rep.Workers {
		if s.Dead {
			t.Errorf("worker %q marked dead; transient abort should be retried: %+v", s.Name, s)
		}
	}
	if won := rep.Workers[0].Won + rep.Workers[1].Won; won != len(p.Tasks) {
		t.Errorf("workers won %d of %d tasks", won, len(p.Tasks))
	}
}

// notifyAbort closes died once the wrapped abortOnce has fired.
type notifyAbort struct {
	abort *abortOnce
	died  chan struct{}
	once  sync.Once
}

func (n *notifyAbort) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer n.once.Do(func() { close(n.died) })
	n.abort.ServeHTTP(w, r)
}

// gatedHTTPWorker delays its first scan until gate closes.
type gatedHTTPWorker struct {
	*HTTPWorker
	gate <-chan struct{}
}

func (w *gatedHTTPWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	<-w.gate
	return w.HTTPWorker.Scan(ctx, req)
}

// TestHTTPWorkerConnectionRefused checks a worker that never existed
// (nothing listening) maps onto ErrUnavailable, so a fleet with one dead
// address still completes on the survivors.
func TestHTTPWorkerConnectionRefused(t *testing.T) {
	spec := Spec{}
	p := testPlan(t, 12)
	want := singleNode(t, p, spec)

	ts := httptest.NewServer(NewWorkerServer("live", p).Handler())
	defer ts.Close()

	failed := make(chan struct{})
	ghost := &failNotifyWorker{HTTPWorker: NewHTTPWorker("ghost", "http://127.0.0.1:1"), failed: failed}
	live := &gatedHTTPWorker{HTTPWorker: NewHTTPWorker("live", ts.URL), gate: failed}

	// The ghost's health probe refuses too, so quarantine cannot
	// re-admit it: the trip escalates to death.
	m, rep, err := Measure(context.Background(), p, spec, []Worker{ghost, live}, fastFailOpts())
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, m, want)
	if !rep.Workers[0].Dead {
		t.Errorf("ghost worker not marked dead: %+v", rep.Workers[0])
	}
}

// failNotifyWorker closes failed once the wrapped worker errors. It
// embeds the concrete HTTPWorker so Probe stays visible: the
// coordinator's health check must reach the (dead) address too.
type failNotifyWorker struct {
	*HTTPWorker
	failed chan struct{}
	once   sync.Once
}

func (w *failNotifyWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	resp, err := w.HTTPWorker.Scan(ctx, req)
	if err != nil {
		w.once.Do(func() { close(w.failed) })
	}
	return resp, err
}

// TestHTTPWorkerRetryAfter pins the back-pressure contract: 429 and
// 503 answers come back as retryable ErrUnavailable carrying the
// server's Retry-After hint, so the retry layer waits at least that
// long instead of hammering an overloaded worker.
func TestHTTPWorkerRetryAfter(t *testing.T) {
	p := testPlan(t, 12)
	inner := NewWorkerServer("busy", p).Handler()
	for _, tc := range []struct {
		name       string
		status     int
		retryAfter string
		wantHint   time.Duration
	}{
		{"503-with-hint", http.StatusServiceUnavailable, "2", 2 * time.Second},
		{"429-with-hint", http.StatusTooManyRequests, "1", time.Second},
		{"503-no-hint", http.StatusServiceUnavailable, "", 0},
		{"503-bad-hint", http.StatusServiceUnavailable, "soon", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rejected bool
			var mu sync.Mutex
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				first := !rejected
				rejected = true
				mu.Unlock()
				if first && r.URL.Path == "/v1/scan" {
					if tc.retryAfter != "" {
						w.Header().Set("Retry-After", tc.retryAfter)
					}
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(tc.status)
					w.Write([]byte(`{"error":"busy"}`))
					return
				}
				inner.ServeHTTP(w, r)
			})
			ts := httptest.NewServer(h)
			defer ts.Close()

			w := NewHTTPWorker("busy", ts.URL)
			req := &ScanRequest{PlanFP: p.Fingerprint(), Task: 0}
			_, err := w.Scan(context.Background(), req)
			if !errs.IsRetryable(err) {
				t.Fatalf("status %d: err = %v, want retryable", tc.status, err)
			}
			hint, ok := errs.RetryAfterHint(err)
			if hint != tc.wantHint || ok != (tc.wantHint > 0) {
				t.Errorf("RetryAfterHint = (%v, %v), want (%v, %v)", hint, ok, tc.wantHint, tc.wantHint > 0)
			}
			// The rejection is transient: the next call must succeed.
			resp, err := w.Scan(context.Background(), req)
			if err != nil {
				t.Fatalf("second scan: %v", err)
			}
			if resp.Task != 0 || len(resp.States) == 0 {
				t.Errorf("second scan returned %+v", resp)
			}
		})
	}
}

// TestHTTPWorkerProbe checks the health-probe round trip: a live daemon
// answers healthy, a dead address answers retryably unhealthy.
func TestHTTPWorkerProbe(t *testing.T) {
	p := testPlan(t, 12)
	ts := httptest.NewServer(NewWorkerServer("live", p).Handler())
	defer ts.Close()

	if err := NewHTTPWorker("live", ts.URL).Probe(context.Background()); err != nil {
		t.Errorf("live probe: %v", err)
	}
	err := NewHTTPWorker("ghost", "http://127.0.0.1:1").Probe(context.Background())
	if err == nil {
		t.Fatal("ghost probe succeeded")
	}
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Errorf("ghost probe err = %v, want ErrUnavailable", err)
	}
}

// TestHTTPWorkerPlanMismatch checks the fingerprint preflight crosses
// the wire: a daemon serving a different corpus answers 400 and the run
// fails with ErrInvalid.
func TestHTTPWorkerPlanMismatch(t *testing.T) {
	spec := Spec{}
	p := testPlan(t, 12)
	other := testPlan(t, 13)
	ts := httptest.NewServer(NewWorkerServer("stale", other).Handler())
	defer ts.Close()

	_, _, err := Measure(context.Background(), p, spec, []Worker{NewHTTPWorker("stale", ts.URL)}, Options{})
	if !errors.Is(err, errs.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

// TestScanRequestIsBounded pins the daemon's request side: a body over
// the cap, or with anything after its one JSON value, is answered 400
// in the error envelope (ErrInvalid on the coordinator) before any
// kernel set is built for it; trailing whitespace is not "anything". A
// request that still carries the retired scan_workers / block_size fields
// is served: unknown fields are ignored.
func TestScanRequestIsBounded(t *testing.T) {
	p := testPlan(t, 12)
	ts := httptest.NewServer(NewWorkerServer("w", p).Handler())
	defer ts.Close()
	valid := mustJSON(t, &ScanRequest{PlanFP: p.Fingerprint(), Task: 0})
	huge := mustJSON(t, &ScanRequest{PlanFP: p.Fingerprint(), Spec: Spec{Patterns: []string{strings.Repeat("a", errs.MaxRequestBytes)}}})
	for name, tc := range map[string]struct {
		body   []byte
		status int
	}{
		"valid":               {valid, http.StatusOK},
		"trailing-whitespace": {append(append([]byte(nil), valid...), " \n"...), http.StatusOK},
		"retired-fields":      {append(append([]byte(nil), valid[:len(valid)-1]...), `,"scan_workers":4,"block_size":512}`...), http.StatusOK},
		"oversized":           {huge, http.StatusBadRequest},
		"second-value":        {append(append([]byte(nil), valid...), valid...), http.StatusBadRequest},
		"trailing-garbage":    {append(append([]byte(nil), valid...), '!'), http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.status)
			}
			if tc.status == http.StatusOK {
				return
			}
			var eb errs.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Status != tc.status || eb.Error == "" {
				t.Errorf("error envelope %+v (decode: %v)", eb, err)
			}
		})
	}
}

// TestScanRefusesOverBudgetPatterns: a spec whose patterns exceed
// textproc's budget is refused before any automaton is built for it. One
// pattern as large as the request body allows would ask the automaton for
// gigabytes; the daemon answers 400 (ErrInvalid on the coordinator)
// having allocated only what decoding the body costs, and an in-process
// Local refuses the same spec with ErrInvalid.
func TestScanRefusesOverBudgetPatterns(t *testing.T) {
	p := testPlan(t, 12)
	spec := Spec{Patterns: []string{strings.Repeat("abcdefghijklmnop", (errs.MaxRequestBytes-1<<10)/16)}}
	if _, err := NewLocal("local", p, spec); !errors.Is(err, errs.ErrInvalid) {
		t.Fatalf("NewLocal: err = %v, want ErrInvalid", err)
	}
	ts := httptest.NewServer(NewWorkerServer("w", p).Handler())
	defer ts.Close()
	body := mustJSON(t, &ScanRequest{PlanFP: p.Fingerprint(), Spec: spec})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errs.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || resp.StatusCode != http.StatusBadRequest || eb.Status != http.StatusBadRequest {
		t.Fatalf("status %d, envelope %+v (decode: %v), want 400", resp.StatusCode, eb, err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("a refused %d-byte pattern allocated %.1f MB, want < 8 MB", len(spec.Patterns[0]), float64(grew)/(1<<20))
	}
}
