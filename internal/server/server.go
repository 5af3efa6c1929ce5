// Package server is the resident corpus service: a long-running HTTP
// daemon over the library's scan surface. The paper's reshaping exists so
// scanning runs at hardware speed; the one-shot CLI commands re-pay
// process startup, pack opening and page-cache warm-up on every
// measurement. This server opens the pack shards once (memory-mapped, via
// vfs.ImportPackMappedCtx upstream of New), keeps the mappings hot, and
// multiplexes concurrent requests onto the same fused scan engine the CLI
// uses — so results are bit-identical to the one-shot path by the scan
// determinism contract, and the shared ReaderAt/mapped views become a real
// concurrent cache.
//
// Endpoints (JSON in/out):
//
//	POST /v1/grep     multi-pattern match counts
//	POST /v1/measure  fused stats(+grep)(+complexity) measurement
//	POST /v1/verify   recompute checksums, compare against startup manifest
//	GET  /v1/manifest per-file sizes and checksums (encoded at startup)
//	GET  /v1/stats    corpus-wide text statistics (startup warm scan)
//	GET  /healthz     liveness + drain state
//	GET  /metrics     per-endpoint latency histograms, queue depth, counters
//
// Every scan request passes the admission controller (bounded in-flight
// slots plus a bounded wait queue; overflow refuses with 429 and a
// Retry-After hint) and runs under its own context: deadline from the
// request's timeout_ms field (or X-Timeout-Ms header), cancelled when the
// client disconnects, and cancelled by the server's hard-stop when a drain
// deadline expires. Failures map onto HTTP statuses through
// errs.HTTPStatus — the same taxonomy the CLI exit paths use.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/scan"
	"repro/internal/textproc"
)

// Config sizes the server.
type Config struct {
	// MaxInFlight bounds concurrently running scan requests (≤0 → 1).
	MaxInFlight int
	// QueueDepth bounds requests waiting for a slot (<0 → 0); beyond it
	// requests are refused with 429.
	QueueDepth int
	// ScanWorkers bounds each request's scan fan-out (0 = GOMAXPROCS).
	ScanWorkers int
	// DefaultTimeout applies when a request carries no timeout of its own
	// (0 = no default deadline).
	DefaultTimeout time.Duration

	// gate, when set, runs inside every admitted scan request before the
	// scan starts — a test seam for holding requests in flight
	// deterministically. A non-nil error aborts the request with it.
	gate func(ctx context.Context) error
}

// Server is a resident corpus service over a fixed, already-ordered
// source list (normally scan.SequentialOrder over a mapped pack import).
// The sources — and whatever mappings back them — must stay valid for the
// server's lifetime.
type Server struct {
	cfg  Config
	srcs []scan.Source

	files  int
	bytes  int64
	shards int

	// Startup warm-scan products: the per-file sums are the reference
	// /v1/verify checks against, the manifest document is their JSON
	// rendering (encoded once, served as bytes), the stats answer
	// /v1/stats without a scan, and the scan itself faults the mappings
	// into the page cache. fingerprint is an FNV-64a fold over the (name,
	// size, checksum) rows in input order — one corpus identity derived
	// from the parallel per-file sums.
	sums         []scan.FileSum
	manifestJSON []byte
	fingerprint  uint64
	stats        textproc.TextStats
	lines        int64

	tagger *textproc.Tagger

	adm *admission
	met *Metrics

	hardCtx    context.Context
	hardCancel context.CancelFunc

	mux *http.ServeMux
}

// ManifestEntry is one file's identity in the manifest document.
type ManifestEntry struct {
	Name     string `json:"name"`
	Size     int64  `json:"size"`
	Checksum string `json:"checksum"` // FNV-64a, %016x
}

// New builds a server over the sources, running the startup warm scan
// (per-file checksums, corpus text statistics) under ctx and encoding the
// manifest document from it. The scan doubles as page-cache warm-up for
// mapped packs.
func New(ctx context.Context, srcs []scan.Source, cfg Config) (*Server, error) {
	s := &Server{
		cfg:    cfg,
		srcs:   srcs,
		files:  len(srcs),
		tagger: textproc.NewTagger(),
		adm:    newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
	}
	s.met = newMetrics([]string{"grep", "measure", "verify"}, s.adm.depth)
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())

	shards := make(map[string]struct{})
	for i := range srcs {
		s.bytes += srcs[i].Size
		if shard, _ := srcs[i].Locality(); shard != "" {
			shards[shard] = struct{}{}
		}
	}
	s.shards = len(shards)

	// The warm scan runs the kernel assembly every measurement uses.
	mk, err := core.NewMeasureKernels(core.MeasureOptions{})
	if err != nil {
		return nil, errs.Stage("serve-warmup", err)
	}
	if err := scan.Run(ctx, srcs, scan.Options{Workers: cfg.ScanWorkers}, mk.List...); err != nil {
		return nil, errs.Stage("serve-warmup", err)
	}
	s.sums = mk.Checksum.Sums()
	s.fingerprint = scan.FingerprintSums(s.sums)
	s.stats = mk.Analyzer.Total()
	s.lines = mk.Analyzer.Lines()
	if s.manifestJSON, err = s.encodeManifest(); err != nil {
		return nil, errs.Stage("serve-warmup", err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/grep", s.handleGrep)
	mux.HandleFunc("POST /v1/measure", s.handleMeasure)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /v1/manifest", s.handleManifest)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler; the caller owns the http.Server and
// listener around it.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the live metrics (the same data /metrics serves).
func (s *Server) Metrics() *Metrics { return s.met }

// StartDrain stops admitting scan work: queued requests unblock with 503
// and new arrivals refuse immediately. In-flight requests keep running —
// pair with http.Server.Shutdown to wait for them. Idempotent.
func (s *Server) StartDrain() { s.adm.startDrain() }

// Draining reports whether StartDrain has run.
func (s *Server) Draining() bool { return s.adm.draining() }

// HardStop cancels every in-flight request's context — the drain
// deadline's last resort. The scans unwind through the typed cancellation
// path and free their slots. Idempotent.
func (s *Server) HardStop() { s.hardCancel() }

// --- request plumbing ---------------------------------------------------

// The longest timeout one request may ask for, whatever the operator's
// flags say: a timeout in milliseconds overflows time.Duration long before
// it overflows int64. A body is bounded by errs.MaxRequestBytes, and its
// patterns by textproc.CheckPatternBudget, which the handlers run before
// admission so an over-budget request never waits for a slot.
const maxTimeout = time.Hour

// timeoutOf resolves a request's deadline: the body's timeout_ms when
// positive, else the X-Timeout-Ms header, else the server default. A
// requested timeout past maxTimeout is refused, not clamped.
func (s *Server) timeoutOf(r *http.Request, bodyMS int64) (time.Duration, error) {
	ms := bodyMS
	if ms <= 0 {
		ms, _ = strconv.ParseInt(r.Header.Get("X-Timeout-Ms"), 10, 64)
	}
	switch {
	case ms <= 0:
		return s.cfg.DefaultTimeout, nil
	case ms > maxTimeout.Milliseconds():
		return 0, errs.Invalid("timeout %d ms, limit %d", ms, maxTimeout.Milliseconds())
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// runScan is the shared scan-request wrapper: admission, per-request
// context (client disconnect + timeout + server hard-stop), in-flight
// gauges, latency observation and error mapping. fn runs with a slot held.
func (s *Server) runScan(w http.ResponseWriter, r *http.Request, endpoint string, timeoutMS int64, fn func(ctx context.Context) (any, error)) {
	timeout, err := s.timeoutOf(r, timeoutMS)
	if err != nil {
		errs.WriteError(w, errs.Stage(endpoint, err))
		return
	}
	ep := s.met.endpoints[endpoint]
	if err := s.adm.acquire(r.Context()); err != nil {
		switch err {
		case ErrOverloaded:
			s.met.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			errs.WriteJSON(w, http.StatusTooManyRequests, errs.ErrorBody{Error: err.Error(), Status: http.StatusTooManyRequests})
		case ErrDraining:
			s.met.drained.Add(1)
			// A draining server is gone for good shortly; the hint tells
			// retrying clients to try a replica rather than spin here.
			w.Header().Set("Retry-After", "1")
			errs.WriteJSON(w, http.StatusServiceUnavailable, errs.ErrorBody{Error: err.Error(), Status: http.StatusServiceUnavailable})
		default:
			// The client vanished while queued; status is a formality.
			ep.cancels.Add(1)
			errs.WriteError(w, err)
		}
		return
	}
	defer s.adm.release()

	ctx := r.Context()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	// A hard stop (drain deadline expired) cancels in-flight work too.
	stopHard := context.AfterFunc(s.hardCtx, cancel)
	defer stopHard()

	s.met.inFlight.Add(1)
	s.met.inFlightBytes.Add(s.bytes)
	start := time.Now()
	var res any
	if s.cfg.gate != nil {
		err = s.cfg.gate(ctx)
	}
	if err == nil {
		res, err = fn(ctx)
	}
	elapsed := time.Since(start)
	s.met.inFlightBytes.Add(-s.bytes)
	s.met.inFlight.Add(-1)

	ep.hist.observe(elapsed)
	ep.requests.Add(1)
	if err != nil {
		err = errs.Categorize(err)
		if errs.IsCancellation(err) {
			ep.cancels.Add(1)
		} else {
			ep.errors.Add(1)
		}
		errs.WriteError(w, err)
		return
	}
	errs.WriteJSON(w, http.StatusOK, res)
}

// --- endpoints ----------------------------------------------------------

// GrepRequest asks for multi-pattern match counts over the corpus.
type GrepRequest struct {
	Patterns  []string `json:"patterns"`
	Fold      bool     `json:"fold"`
	PerFile   bool     `json:"per_file"`
	TimeoutMS int64    `json:"timeout_ms"`
}

// FileCounts is one file's per-pattern counts in a GrepResponse.
type FileCounts struct {
	Name    string  `json:"name"`
	Counts  []int64 `json:"counts"`
	Matches int64   `json:"matches"`
}

// GrepResponse reports match counts; Totals aligns with Patterns.
type GrepResponse struct {
	Files     int          `json:"files"`
	Bytes     int64        `json:"bytes"`
	Patterns  []string     `json:"patterns"`
	Totals    []int64      `json:"totals"`
	Matches   int64        `json:"matches"`
	PerFile   []FileCounts `json:"per_file,omitempty"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// newSearcher builds the request's multi-pattern searcher, ASCII
// case-insensitive when fold is set.
func newSearcher(patterns []string, fold bool) (*textproc.MultiSearcher, error) {
	if fold {
		return textproc.NewFoldedMultiSearcher(patterns)
	}
	return textproc.NewMultiSearcher(patterns)
}

func (s *Server) handleGrep(w http.ResponseWriter, r *http.Request) {
	var req GrepRequest
	if err := errs.DecodeJSON(w, r, &req); err != nil {
		errs.WriteError(w, err)
		return
	}
	if len(req.Patterns) == 0 {
		errs.WriteError(w, errs.Stage("grep", errs.Invalid("no patterns")))
		return
	}
	if err := textproc.CheckPatternBudget(req.Patterns); err != nil {
		errs.WriteError(w, errs.Stage("grep", err))
		return
	}
	s.runScan(w, r, "grep", req.TimeoutMS, func(ctx context.Context) (any, error) {
		// Built with the slot held, so admission bounds what searchers cost
		// at once: a large pattern set allocates tens of megabytes.
		ms, err := newSearcher(req.Patterns, req.Fold)
		if err != nil {
			return nil, errs.Stage("grep", err)
		}
		mk := textproc.NewMatchKernel(ms)
		start := time.Now()
		if err := scan.Run(ctx, s.srcs, scan.Options{Workers: s.cfg.ScanWorkers}, mk); err != nil {
			return nil, errs.Stage("grep", err)
		}
		resp := &GrepResponse{
			Files:     s.files,
			Bytes:     s.bytes,
			Patterns:  ms.Patterns(),
			Totals:    mk.Totals(),
			Matches:   mk.TotalMatches(),
			ElapsedMS: float64(time.Since(start).Nanoseconds()) * msPerNs,
		}
		if req.PerFile {
			resp.PerFile = make([]FileCounts, 0, len(mk.Files()))
			for _, f := range mk.Files() {
				resp.PerFile = append(resp.PerFile, FileCounts{Name: f.Name, Counts: f.Counts, Matches: f.Matches})
			}
		}
		return resp, nil
	})
}

// MeasureRequest asks for the fused measurement scan.
type MeasureRequest struct {
	Patterns   []string `json:"patterns"`
	Fold       bool     `json:"fold"`
	Complexity bool     `json:"complexity"`
	TimeoutMS  int64    `json:"timeout_ms"`
}

// MeasureResponse reports the fused scan's outputs.
type MeasureResponse struct {
	Files          int      `json:"files"`
	Bytes          int64    `json:"bytes"`
	Tokens         int      `json:"tokens"`
	Words          int      `json:"words"`
	Sentences      int      `json:"sentences"`
	Lines          int64    `json:"lines"`
	MeanSentence   float64  `json:"mean_sentence"`
	MaxSentence    int      `json:"max_sentence"`
	Patterns       []string `json:"patterns,omitempty"`
	Totals         []int64  `json:"totals,omitempty"`
	Matches        int64    `json:"matches"`
	ComplexityMean float64  `json:"complexity_mean,omitempty"`
	ElapsedMS      float64  `json:"elapsed_ms"`
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	var req MeasureRequest
	if err := errs.DecodeJSON(w, r, &req); err != nil {
		errs.WriteError(w, err)
		return
	}
	if err := textproc.CheckPatternBudget(req.Patterns); err != nil {
		errs.WriteError(w, errs.Stage("measure", err))
		return
	}
	s.runScan(w, r, "measure", req.TimeoutMS, func(ctx context.Context) (any, error) {
		start := time.Now()
		// The scan runs what the response reports and nothing else: the
		// analyzer (with the lexicon when complexity is asked for) and the
		// matcher when there are patterns. No field carries a checksum, so
		// none is folded; files and bytes are the server's own counts, and
		// scan.Run fails a source that delivers other than its declared size.
		var tagger *textproc.Tagger
		if req.Complexity {
			tagger = s.tagger
		}
		an := textproc.NewAnalyzerKernel(tagger)
		kernels := []scan.Kernel{an}
		var mk *textproc.MatchKernel
		if len(req.Patterns) > 0 {
			ms, err := newSearcher(req.Patterns, req.Fold)
			if err != nil {
				return nil, errs.Stage("measure", err)
			}
			mk = textproc.NewMatchKernel(ms)
			kernels = append(kernels, mk)
		}
		if err := scan.Run(ctx, s.srcs, scan.Options{Workers: s.cfg.ScanWorkers}, kernels...); err != nil {
			return nil, errs.Stage("measure", err)
		}
		stats := an.Total()
		resp := &MeasureResponse{
			Files:        s.files,
			Bytes:        s.bytes,
			Tokens:       stats.Tokens,
			Words:        stats.Words,
			Sentences:    stats.Sentences,
			Lines:        an.Lines(),
			MeanSentence: stats.MeanSentence,
			MaxSentence:  stats.MaxSentence,
		}
		if mk != nil {
			resp.Patterns = mk.Searcher().Patterns()
			resp.Totals = mk.Totals()
			resp.Matches = mk.TotalMatches()
		}
		if req.Complexity {
			resp.ComplexityMean = complexityMean(an.Files())
		}
		resp.ElapsedMS = float64(time.Since(start).Nanoseconds()) * msPerNs
		return resp, nil
	})
}

// complexityMean folds the per-file complexities in scan input order —
// the order core.Measurement lists its FileStats in, never a map's — so
// the floating-point sum, and so the response, is the same bits for
// identical requests and equal to the library's.
func complexityMean(files []textproc.FileStats) float64 {
	var sum float64
	for _, f := range files {
		sum += core.FileComplexity(f)
	}
	return sum / float64(len(files))
}

// VerifyRequest asks for a full re-checksum against the startup manifest.
type VerifyRequest struct {
	TimeoutMS int64 `json:"timeout_ms"`
}

// VerifyResponse reports a verification pass.
type VerifyResponse struct {
	Files       int     `json:"files"`
	Bytes       int64   `json:"bytes"`
	Fingerprint string  `json:"fingerprint"`
	OK          bool    `json:"ok"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if err := errs.DecodeJSON(w, r, &req); err != nil {
		errs.WriteError(w, err)
		return
	}
	s.runScan(w, r, "verify", req.TimeoutMS, func(ctx context.Context) (any, error) {
		ck := scan.NewChecksum()
		start := time.Now()
		if err := scan.Run(ctx, s.srcs, scan.Options{Workers: s.cfg.ScanWorkers}, ck); err != nil {
			return nil, errs.Stage("verify", err)
		}
		sums := ck.Sums()
		if len(sums) != len(s.sums) {
			return nil, errs.Stage("verify", errs.Corrupt("scan saw %d files, manifest has %d", len(sums), len(s.sums)))
		}
		for i, sum := range sums {
			if want := s.sums[i]; sum.Name != want.Name || sum.Sum != want.Sum {
				return nil, errs.StageFile("verify", sum.Name,
					errs.Corrupt("checksum %016x, manifest has %016x", sum.Sum, want.Sum))
			}
		}
		if fp := scan.FingerprintSums(sums); fp != s.fingerprint {
			return nil, errs.Stage("verify", errs.Corrupt("fingerprint %016x, startup scan had %016x", fp, s.fingerprint))
		}
		return &VerifyResponse{
			Files:       s.files,
			Bytes:       s.bytes,
			Fingerprint: fmt.Sprintf("%016x", s.fingerprint),
			OK:          true,
			ElapsedMS:   float64(time.Since(start).Nanoseconds()) * msPerNs,
		}, nil
	})
}

// ManifestResponse is the /v1/manifest document.
type ManifestResponse struct {
	Files       int             `json:"files"`
	TotalBytes  int64           `json:"total_bytes"`
	Shards      int             `json:"shards"`
	Fingerprint string          `json:"fingerprint"`
	Entries     []ManifestEntry `json:"entries"`
}

// encodeManifest renders the manifest document exactly as errs.WriteJSON
// would write it (indented, newline-terminated), once: the rows are
// immutable for the server's lifetime, so every GET serves these bytes.
func (s *Server) encodeManifest() ([]byte, error) {
	man := &ManifestResponse{
		Files:       s.files,
		TotalBytes:  s.bytes,
		Shards:      s.shards,
		Fingerprint: fmt.Sprintf("%016x", s.fingerprint),
		Entries:     make([]ManifestEntry, len(s.sums)),
	}
	for i, sum := range s.sums {
		man.Entries[i] = ManifestEntry{Name: sum.Name, Size: sum.Size, Checksum: fmt.Sprintf("%016x", sum.Sum)}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(man); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(s.manifestJSON)))
	w.Write(s.manifestJSON) // the client is the only victim of a failed write
}

// StatsResponse is the /v1/stats document (startup warm-scan statistics).
type StatsResponse struct {
	Files        int     `json:"files"`
	Bytes        int64   `json:"bytes"`
	Tokens       int     `json:"tokens"`
	Words        int     `json:"words"`
	Sentences    int     `json:"sentences"`
	Lines        int64   `json:"lines"`
	MeanSentence float64 `json:"mean_sentence"`
	MaxSentence  int     `json:"max_sentence"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	errs.WriteJSON(w, http.StatusOK, &StatsResponse{
		Files:        s.files,
		Bytes:        s.bytes,
		Tokens:       s.stats.Tokens,
		Words:        s.stats.Words,
		Sentences:    s.stats.Sentences,
		Lines:        s.lines,
		MeanSentence: s.stats.MeanSentence,
		MaxSentence:  s.stats.MaxSentence,
	})
}

// HealthzResponse is the /healthz document.
type HealthzResponse struct {
	Status   string  `json:"status"` // "ok" or "draining"
	UptimeMS float64 `json:"uptime_ms"`
	Files    int     `json:"files"`
	Bytes    int64   `json:"bytes"`
	Shards   int     `json:"shards"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := &HealthzResponse{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.met.start).Nanoseconds()) * msPerNs,
		Files:    s.files,
		Bytes:    s.bytes,
		Shards:   s.shards,
	}
	status := http.StatusOK
	if s.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	errs.WriteJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	errs.WriteJSON(w, http.StatusOK, s.met.Snapshot())
}
