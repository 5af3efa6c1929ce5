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

	"repro/internal/errs"
	"repro/internal/scan"
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
		return errs.Invalid("worker %q probe: %v", w.name, err)
	}
	resp, err := w.hc.Do(hreq)
	if err != nil {
		return errs.Unavailable("worker %q probe: %v", w.name, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return errs.Unavailable("worker %q probe: status %d", w.name, resp.StatusCode)
	}
	return nil
}

// Scan implements Worker.
func (w *HTTPWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, errs.Invalid("encoding scan request: %v", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/scan", bytes.NewReader(body))
	if err != nil {
		return nil, errs.Invalid("worker %q request: %v", w.name, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			return nil, errs.FromContext(ctx)
		}
		return nil, errs.Unavailable("worker %q: %v", w.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker %q: %w", w.name, errs.FromHTTPResponse(resp))
	}
	// One pooled buffer, which the returned states alias until the
	// coordinator, done restoring them, calls the response's release. A
	// declared length reserves at most firstChunk; past that it grows as
	// bytes arrive.
	buf := recvBufs.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(int(min(max(resp.ContentLength, 0), firstChunk)) + bytes.MinRead)
	// A response that dies mid-body or fails its frame checks is the
	// worker dying mid-answer — a re-dispatch; none of it reaches Restore.
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		if ctx.Err() != nil {
			return nil, errs.FromContext(ctx)
		}
		return nil, errs.Unavailable("worker %q: truncated response: %v", w.name, err)
	}
	task, states, n, err := parseRecord(buf.Bytes())
	switch {
	case err != nil:
		return nil, errs.Unavailable("worker %q: bad response: %v", w.name, err)
	case n != buf.Len():
		return nil, errs.Unavailable("worker %q: bad response: %d bytes after the record", w.name, buf.Len()-n)
	case task != req.Task:
		return nil, errs.Unavailable("worker %q: answered task %d, asked for %d", w.name, task, req.Task)
	}
	return &ScanResponse{Task: task, States: states, release: func() {
		poison(buf.Bytes())
		recvBufs.Put(buf)
	}}, nil
}

// recvBufs recycles the coordinator's receive buffers across answers: a
// buffer comes back when the states read into it have been restored and
// merged, so in steady state an answer lands in capacity an earlier one
// grew. A buffer dropped on an error path is left to the GC.
var recvBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// firstChunk caps what a declared Content-Length may reserve before any
// of it has arrived. dist-packed's record is 213 KB per task (2 772 155
// state bytes over 13 tasks), and a pooled receive buffer has that room
// from its first answer on, so the reservation is paid once per buffer:
// 1 MiB takes a record 4× that in a single exact allocation, and a
// hostile "Content-Length: 4 GB" costs 1 MiB.
const firstChunk = 1 << 20

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
// Errors leave through errs.WriteError and HTTPWorker reads them back
// with errs.FromHTTPResponse, so a sentinel crosses the wire as itself.
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
		return nil, errs.Invalid("encoding spec: %v", err)
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

func (s *WorkerServer) handleScan(w http.ResponseWriter, r *http.Request) {
	var req ScanRequest
	if err := errs.DecodeJSON(w, r, &req); err != nil {
		errs.WriteError(w, err)
		return
	}
	l, err := s.localFor(req.Spec)
	if err != nil {
		errs.WriteError(w, err)
		return
	}
	// The record is framed into a pooled buffer, each kernel's state
	// encoded straight into it, and the buffer goes back once Write has
	// returned: an io.Writer must not retain what it is given.
	bp := recordBufs.Get().(*[]byte)
	defer recordBufs.Put(bp)
	body, err := l.appendScan(r.Context(), &req, (*bp)[:0])
	if err != nil {
		errs.WriteError(w, errs.Categorize(err))
		return
	}
	*bp = body
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // the coordinator is the only victim of a failed write
}

// recordBufs recycles the worker's answer buffers across requests, so a
// daemon frames each record into capacity an earlier answer grew.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// WorkerHealth is the worker daemon's /healthz document.
type WorkerHealth struct {
	Status string `json:"status"`
	Name   string `json:"name"`
	Files  int    `json:"files"`
	Tasks  int    `json:"tasks"`
	PlanFP string `json:"plan_fp"`
}

func (s *WorkerServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	errs.WriteJSON(w, http.StatusOK, &WorkerHealth{
		Status: "ok",
		Name:   s.name,
		Files:  len(s.plan.Sources),
		Tasks:  len(s.plan.Tasks),
		PlanFP: fmt.Sprintf("%016x", s.plan.Fingerprint()),
	})
}
