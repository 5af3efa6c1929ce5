package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/scan"
	"repro/internal/server"
)

// HTTPWorker is the coordinator-side client for a remote worker daemon:
// one POST /v1/scan per task — a small JSON request out, one binary
// record (record.go) back. Any transport failure — connection refused,
// reset mid-response, the process killed — and any answer that is not
// exactly one intact record for the task asked maps onto ErrUnavailable,
// which is precisely the coordinator's re-dispatch signal: a vanished
// worker is indistinguishable from one that answered 503, and both mean
// "give the task to someone else".
type HTTPWorker struct {
	name string
	base string
	hc   *http.Client
}

// NewHTTPWorker returns a client for the worker daemon at baseURL (e.g.
// "http://127.0.0.1:9101"). The request context governs timeouts; the
// client itself sets none.
func NewHTTPWorker(name, baseURL string) *HTTPWorker {
	return NewHTTPWorkerClient(name, baseURL, &http.Client{})
}

// NewHTTPWorkerClient is NewHTTPWorker with a caller-supplied client —
// the injection point for instrumented or fault-injecting transports
// (fault.Injector.Transport).
func NewHTTPWorkerClient(name, baseURL string, hc *http.Client) *HTTPWorker {
	return &HTTPWorker{name: name, base: baseURL, hc: hc}
}

// Name implements Worker.
func (w *HTTPWorker) Name() string { return w.name }

// Probe implements HealthChecker: one GET /healthz round trip. Any
// transport failure or non-200 answer keeps the worker benched.
func (w *HTTPWorker) Probe(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return errs.Invalid("dist: worker %q probe: %v", w.name, err)
	}
	resp, err := w.hc.Do(hreq)
	if err != nil {
		return errs.Unavailable("dist: worker %q probe: %v", w.name, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return errs.Unavailable("dist: worker %q probe: status %d", w.name, resp.StatusCode)
	}
	return nil
}

// Scan implements Worker.
func (w *HTTPWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, errs.Invalid("dist: encoding scan request: %v", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/scan", bytes.NewReader(body))
	if err != nil {
		return nil, errs.Invalid("dist: worker %q request: %v", w.name, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, errs.FromContext(ctx)
		}
		return nil, errs.Unavailable("dist: worker %q: %v", w.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, w.statusError(resp)
	}
	// One buffer, which the returned states alias. A declared length
	// reserves at most firstChunk; past that it grows as bytes arrive.
	var buf bytes.Buffer
	buf.Grow(int(min(max(resp.ContentLength, 0), firstChunk)) + bytes.MinRead)
	// A response that dies mid-body or fails its frame checks is the
	// worker dying mid-answer — a re-dispatch; none of it reaches Restore.
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		if ctx.Err() != nil {
			return nil, errs.FromContext(ctx)
		}
		return nil, errs.Unavailable("dist: worker %q: truncated response: %v", w.name, err)
	}
	task, states, n, err := parseRecord(buf.Bytes())
	switch {
	case err != nil:
		return nil, errs.Unavailable("dist: worker %q: bad response: %v", w.name, err)
	case n != buf.Len():
		return nil, errs.Unavailable("dist: worker %q: bad response: %d bytes after the record", w.name, buf.Len()-n)
	case task != req.Task:
		return nil, errs.Unavailable("dist: worker %q: answered task %d, asked for %d", w.name, task, req.Task)
	}
	return &ScanResponse{Task: task, States: states}, nil
}

// firstChunk caps what a declared Content-Length may reserve before any
// of it has arrived. dist-packed's record is 213 KB per task (2 772 155
// state bytes over 13 tasks): 1 MiB takes one 4× that in a single exact
// allocation, and a hostile "Content-Length: 4 GB" costs 1 MiB.
const firstChunk = 1 << 20

// statusError maps a non-200 answer back onto the taxonomy — the inverse
// of errs.HTTPStatus, so a sentinel crossing the wire comes back as
// itself: 503 re-dispatches, 400 is a protocol bug, and a 500-class scan
// failure stays fatal exactly as it would be in-process. 429 and 503 are
// both "come back later" (ErrUnavailable), and when the server says how
// long — the Retry-After header — the hint rides along so the retry
// layer waits at least that long instead of hammering an overloaded or
// draining worker.
func (w *HTTPWorker) statusError(resp *http.Response) error {
	msg := "(no body)"
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil && len(b) > 0 {
		var eb server.ErrorBody
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		} else {
			msg = string(bytes.TrimSpace(b))
		}
	}
	switch resp.StatusCode {
	case 400:
		return errs.Invalid("dist: worker %q: %s", w.name, msg)
	case 404:
		return errs.NotFound("dist: worker %q: %s", w.name, msg)
	case 429, 503:
		err := errs.Unavailable("dist: worker %q: status %d: %s", w.name, resp.StatusCode, msg)
		return errs.RetryAfter(err, retryAfterOf(resp))
	case 499:
		return fmt.Errorf("dist: worker %q: %s: %w", w.name, msg, errs.ErrCancelled)
	case 504:
		return fmt.Errorf("dist: worker %q: %s: %w", w.name, msg, errs.ErrDeadline)
	default:
		return fmt.Errorf("dist: worker %q: status %d: %s", w.name, resp.StatusCode, msg)
	}
}

// retryAfterOf parses the response's Retry-After header (delta-seconds
// form). 0 when absent or unparseable — errs.RetryAfter treats that as
// "no hint".
func retryAfterOf(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(s)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// WorkerServer is the daemon half: it owns a plan over its local corpus
// view and answers POST /v1/scan by executing the requested task through
// an in-process Local worker. The Local (and its amortised automata and
// lexicons) is cached per spec — coordinators send one spec per run, so
// steady state is build-once.
//
//	POST /v1/scan  execute one plan task; 200 is application/octet-stream,
//	               exactly one record (record.go) of its kernel states
//	GET  /healthz  liveness
//
// Errors leave through server.WriteError, so the status codes are
// exactly errs.HTTPStatus's table and HTTPWorker's statusError inverts
// them faithfully.
type WorkerServer struct {
	name string
	plan *scan.Plan

	mu      sync.Mutex
	local   *Local
	specKey string
	fault   func(ctx context.Context, task int) error
}

// NewWorkerServer returns a worker daemon over the plan.
func NewWorkerServer(name string, plan *scan.Plan) *WorkerServer {
	return &WorkerServer{name: name, plan: plan}
}

// SetFault installs a per-task fault hook on the daemon's Local workers
// — how `cmd/worker -fault` injects seeded task kills on the server
// side of the wire. Must be called before the first request.
func (s *WorkerServer) SetFault(f func(ctx context.Context, task int) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = f
	if s.local != nil {
		s.local.SetFault(f)
	}
}

// Handler returns the HTTP handler; the caller owns the http.Server and
// listener around it.
func (s *WorkerServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", s.handleScan)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// localFor returns the cached Local for the spec, building one on first
// use or spec change.
func (s *WorkerServer) localFor(spec Spec) (*Local, error) {
	key, err := json.Marshal(spec)
	if err != nil {
		return nil, errs.Invalid("dist: encoding spec: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.local == nil || s.specKey != string(key) {
		l, err := NewLocal(s.name, s.plan, spec)
		if err != nil {
			return nil, err
		}
		l.SetFault(s.fault)
		s.local, s.specKey = l, string(key)
	}
	return s.local, nil
}

// maxRequestBytes bounds a /v1/scan request body: a real one is ~150
// bytes plus the spec's patterns.
const maxRequestBytes = 1 << 20

func (s *WorkerServer) handleScan(w http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		server.WriteError(w, errs.Invalid("dist: bad scan request: %v", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		server.WriteError(w, errs.Invalid("dist: bad scan request: data after the JSON value"))
		return
	}
	l, err := s.localFor(req.Spec)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	resp, err := l.Scan(r.Context(), &req)
	if err != nil {
		server.WriteError(w, errs.Categorize(err))
		return
	}
	body := appendRecord(nil, resp.Task, resp.States)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // the coordinator is the only victim of a failed write
}

// WorkerHealth is the worker daemon's /healthz document.
type WorkerHealth struct {
	Status string `json:"status"`
	Name   string `json:"name"`
	Files  int    `json:"files"`
	Tasks  int    `json:"tasks"`
	PlanFP string `json:"plan_fp"`
}

func (s *WorkerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, &WorkerHealth{
		Status: "ok",
		Name:   s.name,
		Files:  len(s.plan.Sources),
		Tasks:  len(s.plan.Tasks),
		PlanFP: fmt.Sprintf("%016x", s.plan.Fingerprint()),
	})
}
