package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scan"
	"repro/internal/server"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// The daemon's traffic: four request kinds in a fixed mix, arriving as
// a seeded Poisson process at one of three fixed rates. The rates are
// ≈60 / 90 / 120 % of the closed-loop capacity measured on the 2-core
// sandbox when the benchmark was defined (see README.md); they are
// constants so both sides of a comparison are offered the same load.
type reqKind int

const (
	kGrep reqKind = iota
	kMeasure
	kManifest
	kStats
)

var (
	kindNames = [...]string{"grep", "measure", "manifest", "stats"}
	kindMix   = [...]float64{0.60, 0.20, 0.10, 0.10}
	rateSteps = [...]float64{80, 120, 160}
)

const (
	sloMS       = 150.0 // latency limit on p95 and per request
	connections = 2     // client connections = sandbox cores
)

type request struct {
	due  time.Duration // since the start of the step; 0 in a closed loop
	kind reqKind
}

// schedule draws n requests from the seed: kinds from the mix and, when
// rate > 0, Poisson arrivals (exponential gaps) at that many per second.
// rate 0 makes every request due at once — a closed loop's backlog.
func schedule(seed int64, rate float64, n int) []request {
	r := rand.New(rand.NewSource(seed))
	out := make([]request, n)
	var at float64
	for i := range out {
		if rate > 0 {
			at += r.ExpFloat64() / rate
		}
		u, kind := r.Float64(), kStats
		for k, share := range kindMix {
			if u < share {
				kind = reqKind(k)
				break
			}
			u -= share
		}
		out[i] = request{time.Duration(at * float64(time.Second)), kind}
	}
	return out
}

// sample is one request's outcome. In an open loop latency runs from
// the due time, so a stall is charged to every request it delays; lag is
// how late the generator actually sent it.
type sample struct {
	sent     bool
	lat, lag time.Duration
	err      error
}

// serveMixed is the resident-service workload: server.New over the
// small C2 corpus behind a real net/http listener, where per-request
// fixed costs (admission, HTTP+JSON envelope, automaton build, response
// encoding) dominate because the corpus is small — exactly the costs
// the batch workloads amortise.
type serveMixed struct {
	noInputs
	seed   int64
	packs  string
	closer io.Closer
	srcs   []scan.Source
	srv    *server.Server
	http   *http.Server
	url    string
	client *http.Client
	or     *oracle
	newMS  float64
}

var (
	grepBody    = mustJSON(server.GrepRequest{Patterns: patterns})
	measureBody = mustJSON(server.MeasureRequest{Complexity: true})
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (w *serveMixed) setup(ctx context.Context, dir string, fs *vfs.FS) error {
	w.packs = filepath.Join(dir, "c2")
	if _, err := fs.ExportPackCtx(ctx, w.packs, vfs.PackOptions{Prefix: "m", ShardSize: memberShard}); err != nil {
		return err
	}
	mfs, closer, err := vfs.ImportPackMappedCtx(ctx, w.packs)
	if err != nil {
		return err
	}
	w.closer = closer
	w.srcs = scan.SequentialOrder(vfs.Sources(mfs.List()))
	t0 := time.Now()
	w.srv, err = server.New(ctx, w.srcs, server.Config{MaxInFlight: connections, QueueDepth: 64})
	w.newMS = ms(time.Since(t0))
	if err != nil {
		return err
	}
	w.http, w.url, err = serveLoopback(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections}}
	return err
}

func (w *serveMixed) oracle(ctx context.Context, members []memFile) (err error) {
	w.or, err = newOracle(ctx, members, true)
	return err
}

// warmup sends every request kind twice.
func (w *serveMixed) warmup(ctx context.Context) (func() error, error) {
	for i := 0; i < 2; i++ {
		for k := range kindNames {
			if _, err := w.roundTrip(ctx, reqKind(k), w.overHTTP); err != nil {
				return nil, err
			}
		}
	}
	return func() error { return nil }, nil
}

func (w *serveMixed) newRequest(ctx context.Context, kind reqKind) *http.Request {
	method, body := http.MethodGet, io.Reader(nil)
	switch kind {
	case kGrep:
		method, body = http.MethodPost, bytes.NewReader(grepBody)
	case kMeasure:
		method, body = http.MethodPost, bytes.NewReader(measureBody)
	}
	req, err := http.NewRequestWithContext(ctx, method, w.url+"/v1/"+kindNames[kind], body)
	if err != nil {
		panic(err) // constant method and URL shape
	}
	return req
}

// overHTTP sends the request through the loopback listener; direct
// calls the handler in-process. Both return status and body.
func (w *serveMixed) overHTTP(req *http.Request) (int, []byte, error) {
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (w *serveMixed) direct(req *http.Request) (int, []byte, error) {
	rec := httptest.NewRecorder()
	w.srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), nil
}

// roundTrip performs one request and returns the instant its response
// was fully read; checking the decoded document against the oracle
// happens after that instant.
func (w *serveMixed) roundTrip(ctx context.Context, kind reqKind, via func(*http.Request) (int, []byte, error)) (time.Time, error) {
	status, body, err := via(w.newRequest(ctx, kind))
	done := time.Now()
	if err != nil {
		return done, err
	}
	if status != http.StatusOK {
		return done, fmt.Errorf("%s: HTTP %d: %.200s", kindNames[kind], status, body)
	}
	return done, w.checkResponse(kind, body)
}

func (w *serveMixed) checkResponse(kind reqKind, body []byte) error {
	o := w.or
	sizes := func(files int, n int64) error {
		if files != o.files || n != o.bytes {
			return fmt.Errorf("%s: %d files / %d bytes, want %d / %d", kindNames[kind], files, n, o.files, o.bytes)
		}
		return nil
	}
	switch kind {
	case kGrep:
		var r server.GrepResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return errors.Join(sizes(r.Files, r.Bytes), o.checkTotals(r.Totals))
	case kMeasure:
		var r server.MeasureResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if !closeTo(r.ComplexityMean, o.complexityMean) {
			return fmt.Errorf("measure: complexity mean %v, want %v", r.ComplexityMean, o.complexityMean)
		}
		return errors.Join(sizes(r.Files, r.Bytes), o.checkStats(r.Tokens, r.Words))
	case kManifest:
		var r server.ManifestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if err := sizes(r.Files, r.TotalBytes); err != nil {
			return err
		}
		return o.checkSums(len(r.Entries), func(i int) (string, int64, uint64) {
			sum, _ := strconv.ParseUint(r.Entries[i].Checksum, 16, 64)
			return r.Entries[i].Name, r.Entries[i].Size, sum
		})
	default:
		var r server.StatsResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return errors.Join(sizes(r.Files, r.Bytes), o.checkStats(r.Tokens, r.Words))
	}
}

// play sends a schedule over the fixed number of connections. With
// open set, each sender sleeps until its request's due time and latency
// counts from that time; otherwise senders go back to back until the
// schedule or the time limit runs out and latency counts from the send.
// send performs one request and returns the instant its response was
// complete. With a tracer every request becomes an op span (due → done)
// with the client-side send → done span as its child.
func play(sched []request, open bool, limit time.Duration, tr *tracer, send func(reqKind) (time.Time, error)) (sent []sample, elapsed time.Duration) {
	samples := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) || (!open && time.Since(epoch) >= limit) {
					return
				}
				rq := sched[i]
				due := epoch.Add(rq.due)
				if open {
					time.Sleep(time.Until(due))
				}
				start := time.Now()
				if !open {
					due = start
				}
				done, err := send(rq.kind)
				samples[i] = sample{true, done.Sub(due), start.Sub(due), err}
				if tr != nil {
					op := tr.add("op", due, done, -1, i)
					tr.add("server.request", start, done, op, i)
				}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(epoch)
	for _, s := range samples {
		if s.sent {
			sent = append(sent, s)
		}
	}
	return sent, elapsed
}

func (w *serveMixed) load(ctx context.Context, sched []request, open bool, limit time.Duration, tr *tracer) ([]sample, time.Duration) {
	return play(sched, open, limit, tr, func(kind reqKind) (time.Time, error) {
		return w.roundTrip(ctx, kind, w.overHTTP)
	})
}

// stepStats summarises one load step.
type stepStats struct {
	n, failed            int
	p50, p95, p99        float64
	lagP95, sloMissRatio float64
	drained              bool
	firstErr             error
	latMS                []float64
}

// summarise reduces a step's samples; drainedBy is how long after the
// step's last due time its last response arrived.
func summarise(samples []sample, drainedBy time.Duration) stepStats {
	st := stepStats{n: len(samples)}
	lags := make([]float64, 0, len(samples))
	missed := 0
	for _, s := range samples {
		st.latMS = append(st.latMS, ms(s.lat))
		lags = append(lags, ms(s.lag))
		if s.err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = s.err
			}
		}
		if s.err != nil || ms(s.lat) > sloMS {
			missed++
		}
	}
	sorted := sortedCopy(st.latMS)
	sort.Float64s(lags)
	st.p50, st.p95, st.p99 = quantile(sorted, 0.50), quantile(sorted, 0.95), quantile(sorted, 0.99)
	st.lagP95 = quantile(lags, 0.95)
	if st.n > 0 {
		st.sloMissRatio = float64(missed) / float64(st.n)
	}
	st.drained = ms(drainedBy) <= sloMS
	return st
}

// openStep offers rate req/s for about d and summarises the outcome.
func (w *serveMixed) openStep(ctx context.Context, rate float64, d time.Duration, seedSalt int64, tr *tracer) stepStats {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	sched := schedule(w.seed*1000+seedSalt, rate, n)
	samples, elapsed := w.load(ctx, sched, true, 0, tr)
	return summarise(samples, elapsed-sched[n-1].due)
}

// measure, untraced: a closed loop — the fixed number of senders going
// back to back — gives the request latency and the capacity that are
// gated. Traced: the open loop the daemon's users actually are, at the
// three fixed rates, each request timed from its due time; the lowest
// step runs untraced then traced, and their ratio is the tracing
// overhead. Open-loop latency is not gated because on the sandbox its
// run-to-run spread is twice the closed loop's (README.md, Baseline).
func (w *serveMixed) measure(ctx context.Context, d time.Duration, tr *tracer) (*timing, error) {
	tm := &timing{extra: map[string]float64{}}
	note := func(st stepStats) {
		tm.attempted += st.n
		tm.failed += st.failed
		if tm.firstErr == nil {
			tm.firstErr = st.firstErr
		}
	}
	if tr == nil {
		// More requests than the senders can finish inside d.
		sched := schedule(w.seed*1000, 0, int(d.Seconds()*2000)+connections)
		samples, elapsed := w.load(ctx, sched, false, d, nil)
		closed := summarise(samples, 0)
		note(closed)
		tm.opMS = closed.latMS
		tm.opsPerSec = float64(closed.n) / elapsed.Seconds()
		return tm, nil
	}
	part := d / 4
	plain := w.openStep(ctx, rateSteps[0], part, 1, nil)
	traced := w.openStep(ctx, rateSteps[0], part, 2, tr)
	note(plain)
	note(traced)
	tm.opMS = plain.latMS
	tm.traceOverhead = traced.p50 / plain.p50
	tm.extra["server.req_ms_p50"] = plain.p50
	tm.extra["server.req_ms_p95"] = traced.p95
	tm.extra["server.req_ms_p99"] = traced.p99
	tm.extra["server.slo_miss_ratio"] = traced.sloMissRatio
	tm.extra["server.gen_lag_ms_p95"] = traced.lagP95
	steps := []stepStats{traced}
	for i, rate := range rateSteps[1:] {
		st := w.openStep(ctx, rate, part, int64(3+i), nil)
		note(st)
		tm.extra[fmt.Sprintf("server.req_ms_p95.%d", int(rate))] = st.p95
		steps = append(steps, st)
	}
	for i, st := range steps {
		if st.p95 <= sloMS && st.failed == 0 && st.drained {
			tm.extra["server.max_ok_rps"] = rateSteps[i]
		}
	}
	return tm, nil
}

// layers isolates the daemon's per-request costs with sequential
// requests: the handler called in-process, the bare scan a grep handler
// wraps, and the loopback round trip around the handler.
func (w *serveMixed) layers(ctx context.Context, tm *timing, _ *tracer, reps int, out map[string]float64) error {
	out["server.new_ms"] = w.newMS
	n := reps * 5
	for k, name := range kindNames {
		kind := reqKind(k)
		v, err := timeReps(n, func() error { _, err := w.roundTrip(ctx, kind, w.direct); return err })
		if err != nil {
			return err
		}
		out["server.handler_ms."+name] = v
	}
	ms8, err := textproc.NewMultiSearcher(patterns)
	if err != nil {
		return err
	}
	scanOnly, err := timeReps(n, func() error {
		return scan.Run(ctx, w.srcs, scan.Options{}, textproc.NewMatchKernel(ms8))
	})
	if err != nil {
		return err
	}
	overHTTP, err := timeReps(n, func() error { _, err := w.roundTrip(ctx, kGrep, w.overHTTP); return err })
	if err != nil {
		return err
	}
	out["server.scan_only_ms.grep"] = scanOnly
	out["server.envelope_ms.grep"] = out["server.handler_ms.grep"] - scanOnly
	out["server.http_ms.grep"] = overHTTP - out["server.handler_ms.grep"]
	snap := w.srv.Metrics().Snapshot()
	out["server.own_p95_ms.grep"] = snap.Endpoints["grep"].P95MS
	out["server.own_p95_ms.measure"] = snap.Endpoints["measure"].P95MS
	out["server.rejected"] = float64(snap.Rejected429 + snap.Rejected503)
	for k, v := range tm.extra {
		out[k] = v
	}
	return nil
}

func (w *serveMixed) sources(context.Context) ([]scan.Source, io.Closer, error) {
	return w.srcs, nopCloser{}, nil
}

func (w *serveMixed) packStats() (int64, int) { return dirPackStats(w.packs) }
func (w *serveMixed) inputBytes() int64       { return w.or.bytes }

func (w *serveMixed) close() error {
	var err error
	if w.http != nil {
		err = w.http.Close()
		w.client.CloseIdleConnections()
	}
	if w.closer != nil {
		err = errors.Join(err, w.closer.Close())
	}
	w.http, w.closer = nil, nil
	return err
}
