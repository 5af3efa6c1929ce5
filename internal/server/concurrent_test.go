package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// mappedPackServer exports a generated corpus as pack shards, imports them
// memory-mapped, and serves them — the production topology. The mapping
// stays alive for the test's duration.
func mappedPackServer(t *testing.T, cfg Config) (*Server, *httptest.Server, []scan.Source) {
	t.Helper()
	genFS, err := corpus.GenerateWithContentEagerCtx(context.Background(), corpus.Text400K(0.0002), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := genFS.ExportPackCtx(context.Background(), dir, vfs.PackOptions{ShardSize: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	mappedFS, closer, err := vfs.ImportPackMappedCtx(context.Background(), dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	files := mappedFS.List()
	srcs := scan.SequentialOrder(vfs.Sources(files))
	srv, err := New(context.Background(), srcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, srcs
}

// TestConcurrentRequestsBitIdentical fires 32 concurrent grep and measure
// requests at one mapped pack and requires every response to be
// bit-identical to the single-shot library path the CLI uses. This is the
// resident server's correctness contract: concurrency over the shared
// mapping must never change a result.
func TestConcurrentRequestsBitIdentical(t *testing.T) {
	_, ts, srcs := mappedPackServer(t, Config{MaxInFlight: 4, QueueDepth: 64})

	patterns := []string{"the", "and", "president", "error"}
	wantGrep, err := core.MeasureSourcesCtx(context.Background(), srcs,
		core.MeasureOptions{Patterns: patterns})
	if err != nil {
		t.Fatal(err)
	}
	wantMeasure, err := core.MeasureSourcesCtx(context.Background(), srcs,
		core.MeasureOptions{Complexity: true})
	if err != nil {
		t.Fatal(err)
	}
	wantMean := libraryComplexityMean(wantMeasure)

	const clients = 32
	var wg sync.WaitGroup
	errors := make(chan string, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%2 == 0 {
				resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: patterns})
				if resp.StatusCode != 200 {
					errors <- "grep status != 200: " + string(data)
					return
				}
				var got GrepResponse
				if err := json.Unmarshal(data, &got); err != nil {
					errors <- err.Error()
					return
				}
				if got.Matches != wantGrep.Matches || !reflect.DeepEqual(got.Totals, wantGrep.PatternTotals) {
					errors <- "grep result differs from one-shot library run"
				}
			} else {
				resp, data := postJSON(t, ts.URL+"/v1/measure", MeasureRequest{Complexity: true})
				if resp.StatusCode != 200 {
					errors <- "measure status != 200: " + string(data)
					return
				}
				var got MeasureResponse
				if err := json.Unmarshal(data, &got); err != nil {
					errors <- err.Error()
					return
				}
				if got.Tokens != wantMeasure.Stats.Tokens || got.Words != wantMeasure.Stats.Words ||
					got.Sentences != wantMeasure.Stats.Sentences || got.Lines != wantMeasure.Lines ||
					got.ComplexityMean != wantMean {
					errors <- "measure result differs from one-shot library run"
				}
			}
		}(c)
	}
	wg.Wait()
	close(errors)
	for msg := range errors {
		t.Error(msg)
	}

	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if total := snap.Endpoints["grep"].Requests + snap.Endpoints["measure"].Requests; total != clients {
		t.Errorf("metrics saw %d requests, want %d", total, clients)
	}
	if snap.InFlight != 0 || snap.InFlightBytes != 0 {
		t.Errorf("gauges not drained after traffic: %+v", snap)
	}
}

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// gatedServer builds a server whose scan requests block at the gate until
// release is closed (or their context ends), so tests can hold requests
// in flight deterministically.
func gatedServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	cfg.gate = func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return errs.FromContext(ctx)
		}
	}
	fs := vfs.NewFS()
	if err := fs.Add(vfs.BytesFile("f-00", []byte("the corpus under the gate.\n"))); err != nil {
		t.Fatal(err)
	}
	files := fs.List()
	srv, err := New(context.Background(), scan.SequentialOrder(vfs.Sources(files)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, release
}

// TestQueueOverflow429 fills the single worker slot, then the queue, and
// requires the next request to be refused immediately with 429 and a
// Retry-After hint while the queued one still completes.
func TestQueueOverflow429(t *testing.T) {
	srv, ts, release := gatedServer(t, Config{MaxInFlight: 1, QueueDepth: 1})

	type result struct {
		status int
		body   GrepResponse
	}
	results := make(chan result, 2)
	fire := func() {
		resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}})
		var body GrepResponse
		_ = json.Unmarshal(data, &body)
		results <- result{resp.StatusCode, body}
	}

	go fire() // occupies the slot, blocked at the gate
	waitFor(t, "first request in flight", func() bool { return srv.Metrics().inFlight.Load() == 1 })
	go fire() // sits in the queue
	waitFor(t, "second request queued", func() bool { return srv.adm.depth() == 1 })

	// Queue full: the third request must bounce, now, with a hint.
	resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d: %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}

	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; r.status != 200 || r.body.Matches == 0 {
			t.Errorf("held request %d: status %d matches %d, want 200 with matches", i, r.status, r.body.Matches)
		}
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Rejected429 != 1 {
		t.Errorf("rejected_429 = %d, want 1", snap.Rejected429)
	}
	if snap.QueueDepth != 0 || snap.InFlight != 0 {
		t.Errorf("gauges not drained: %+v", snap)
	}
}

// TestGrepRefusedAtAdmissionBuildsNoSearcher: a grep builds its searcher
// with a slot held, so one that admission refuses costs nothing to build.
// With the only slot taken and no queue, a single 16 KiB pattern — whose
// automaton allocates ≈ 117 MB to build — is answered 429 while the whole
// process allocates under 8 MB.
func TestGrepRefusedAtAdmissionBuildsNoSearcher(t *testing.T) {
	srv, ts, release := gatedServer(t, Config{MaxInFlight: 1, QueueDepth: 0})
	held := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}})
		held <- resp.StatusCode
	}()
	waitFor(t, "slot held", func() bool { return srv.Metrics().inFlight.Load() == 1 })

	big := GrepRequest{Patterns: []string{strings.Repeat("abcdefghijklmnop", 1<<10)}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, data := postJSON(t, ts.URL+"/v1/grep", big)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("grep with the slot held: status %d: %s, want 429", resp.StatusCode, data)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("a refused 16 KiB grep allocated %.1f MB, want < 8 MB: the searcher was built before admission", float64(grew)/(1<<20))
	}
	close(release)
	if status := <-held; status != http.StatusOK {
		t.Errorf("held request: status %d, want 200", status)
	}
}

// TestClientDisconnectCancelsScan holds a request at the gate, drops the
// client, and requires the server to observe the cancellation, count it,
// and free the worker slot for the next request.
func TestClientDisconnectCancelsScan(t *testing.T) {
	srv, ts, release := gatedServer(t, Config{MaxInFlight: 1, QueueDepth: 1})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/grep",
		jsonBody(t, GrepRequest{Patterns: []string{"the"}}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()
	waitFor(t, "request in flight", func() bool { return srv.Metrics().inFlight.Load() == 1 })

	cancel() // client walks away mid-scan
	if err := <-done; err == nil {
		t.Error("client Do returned nil error after context cancel")
	}
	waitFor(t, "slot freed", func() bool { return srv.Metrics().inFlight.Load() == 0 })
	waitFor(t, "cancel counted", func() bool {
		return srv.Metrics().endpoints["grep"].cancels.Load() == 1
	})

	// The slot is genuinely free: an unimpeded request completes.
	close(release)
	resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}})
	if resp.StatusCode != 200 {
		t.Fatalf("request after disconnect: status %d: %s", resp.StatusCode, data)
	}
}

// TestDrainAndHardStop walks the shutdown sequence: drain refuses new
// work with 503 (healthz flips to draining), in-flight work finishes
// cleanly when released — and a hard stop cancels what remains.
func TestDrainAndHardStop(t *testing.T) {
	srv, ts, release := gatedServer(t, Config{MaxInFlight: 2, QueueDepth: 2})

	statuses := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}})
		statuses <- resp.StatusCode
	}()
	waitFor(t, "request in flight", func() bool { return srv.Metrics().inFlight.Load() == 1 })

	srv.StartDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d: %s, want 503", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 draining refusal carries no Retry-After header")
	}
	var hz HealthzResponse
	if r := getJSON(t, ts.URL+"/healthz", &hz); r.StatusCode != 503 || hz.Status != "draining" {
		t.Errorf("healthz while draining = %d %q, want 503 draining", r.StatusCode, hz.Status)
	}

	// The in-flight request survives the drain and completes.
	close(release)
	if st := <-statuses; st != 200 {
		t.Errorf("in-flight request finished with %d, want 200", st)
	}

	// Hard stop: a fresh gated server with a stuck request; HardStop must
	// cancel it through the typed path.
	srv2, ts2, _ := gatedServer(t, Config{MaxInFlight: 1, QueueDepth: 1})
	go func() {
		resp, _ := postJSON(t, ts2.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}})
		statuses <- resp.StatusCode
	}()
	waitFor(t, "stuck request in flight", func() bool { return srv2.Metrics().inFlight.Load() == 1 })
	srv2.StartDrain()
	srv2.HardStop()
	if st := <-statuses; st != errs.StatusClientClosedRequest {
		t.Errorf("hard-stopped request finished with %d, want 499", st)
	}
	waitFor(t, "slot freed after hard stop", func() bool { return srv2.Metrics().inFlight.Load() == 0 })
}
