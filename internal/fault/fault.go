// Package fault is a deterministic, seeded fault injector for chaos
// testing the scan pipeline. It attacks the three surfaces where the
// paper's EC2 deployment actually failed — shard reads (I/O errors,
// torn short reads, checksum-violating bit flips, added latency), the
// coordinator↔worker HTTP path (connection refused, 429/503, stalled
// response bodies), and whole task attempts (worker kills) — and every
// decision is a pure function of (seed, site, key, attempt), so a chaos
// run's fault schedule is replayable from its seed regardless of
// goroutine interleaving.
//
// Injected read errors surface as errs.ErrUnavailable (retryable), torn
// reads violate declared sizes (ErrCorrupt), and a bit flip in a pack
// member fails its read with ErrCorrupt, checked against the member's
// stored CRC-32C above the injector. A flip in a -dir or -spec file has no
// stored sum to fail against and changes the bytes silently.
package fault

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/errs"
	"repro/internal/fnv64"
	"repro/internal/vfs"
)

// Injection sites. Each site rolls its own dice stream; the Key
// identifies the victim within the site (file name, worker#task,
// method+path).
const (
	SiteReadErr     = "read-err"
	SiteShortRead   = "short-read"
	SiteBitFlip     = "bit-flip"
	SiteReadLatency = "read-latency"
	SiteKill        = "kill"
	SiteRefuse      = "http-refuse"
	Site503         = "http-503"
	Site429         = "http-429"
	SiteStall       = "http-stall"
)

// Config sets the per-site fault rates (probabilities in [0, 1]) and
// the seed that makes the schedule replayable.
type Config struct {
	// Seed selects the deterministic fault schedule. Two injectors with
	// the same seed and config make identical decisions for identical
	// (site, key, attempt) triples.
	Seed int64

	// Read layer (WrapFS): per file open.
	ReadErr     float64       // transient I/O error partway through the stream
	ShortRead   float64       // torn read: stream ends before the declared size
	BitFlip     float64       // one content byte flipped (checksum-detectable)
	LatencyRate float64       // probability of adding Latency before the first byte
	Latency     time.Duration // the added latency (default 1ms when a rate needs it)

	// Task layer (TaskKill): per worker scan attempt.
	Kill float64 // the attempt dies with ErrUnavailable before scanning

	// HTTP layer (Transport): per request.
	Refuse  float64 // connection refused (ECONNREFUSED, no bytes exchanged)
	HTTP503 float64 // synthesized 503 + Retry-After
	HTTP429 float64 // synthesized 429 + Retry-After
	Stall   float64 // response body stalls, then dies mid-stream (ECONNRESET)

	// RetryAfterS is the Retry-After value (seconds) on injected 429/503
	// responses. 0 means "0": retry immediately, which still exercises
	// the client's header parsing without slowing the chaos run.
	RetryAfterS int
}

// Enabled reports whether any fault rate is nonzero.
func (c Config) Enabled() bool {
	return c.ReadErr > 0 || c.ShortRead > 0 || c.BitFlip > 0 || c.LatencyRate > 0 ||
		c.Kill > 0 || c.Refuse > 0 || c.HTTP503 > 0 || c.HTTP429 > 0 || c.Stall > 0
}

func (c Config) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"readerr", c.ReadErr}, {"shortread", c.ShortRead}, {"bitflip", c.BitFlip},
		{"latencyrate", c.LatencyRate}, {"kill", c.Kill}, {"refuse", c.Refuse},
		{"http503", c.HTTP503}, {"http429", c.HTTP429}, {"stall", c.Stall},
	} {
		// Written so that NaN, which compares false with everything, fails.
		if !(r.v >= 0 && r.v <= 1) {
			return errs.Invalid("fault: rate %s=%v outside [0, 1]", r.name, r.v)
		}
	}
	if c.Latency < 0 {
		return errs.Invalid("fault: negative latency %v", c.Latency)
	}
	if c.RetryAfterS < 0 {
		return errs.Invalid("fault: negative retryafter %d", c.RetryAfterS)
	}
	return nil
}

// ParseSpec parses the CLI fault spec: comma-separated key=value pairs,
// e.g. "seed=7,readerr=0.1,kill=0.05,latency=1ms,latencyrate=0.2".
// Keys: seed, readerr, shortread, bitflip, latency (duration),
// latencyrate, kill, refuse, http503, http429, stall, retryafter
// (seconds). Unknown keys, rates outside [0, 1] (NaN included) and
// negative durations are ErrInvalid.
func ParseSpec(spec string) (Config, error) {
	var c Config
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return c, errs.Invalid("fault: spec entry %q is not key=value", part)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "latency":
			c.Latency, err = time.ParseDuration(v)
		case "retryafter":
			c.RetryAfterS, err = strconv.Atoi(v)
		default:
			var rate float64
			if rate, err = strconv.ParseFloat(v, 64); err == nil {
				switch k {
				case "readerr":
					c.ReadErr = rate
				case "shortread":
					c.ShortRead = rate
				case "bitflip":
					c.BitFlip = rate
				case "latencyrate":
					c.LatencyRate = rate
				case "kill":
					c.Kill = rate
				case "refuse":
					c.Refuse = rate
				case "http503":
					c.HTTP503 = rate
				case "http429":
					c.HTTP429 = rate
				case "stall":
					c.Stall = rate
				default:
					return c, errs.Invalid("fault: unknown spec key %q", k)
				}
			}
		}
		if err != nil {
			return c, errs.Invalid("fault: spec %s=%q: %v", k, v, err)
		}
	}
	if c.LatencyRate > 0 && c.Latency == 0 {
		c.Latency = time.Millisecond
	}
	return c, c.validate()
}

// Injector makes the seeded fault decisions. Decisions are a pure
// function of (seed, site, key, attempt): the attempt counter is the
// only mutable input, and it advances exactly once per roll of its
// (site, key) pair, so concurrent victims cannot perturb each other's
// schedules.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	attempts map[string]uint64 // per-(site,key) roll count
	counts   map[string]int    // per-site fired count
	fired    int
}

// New builds an injector for the config.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Injector{
		cfg:      cfg,
		attempts: make(map[string]uint64),
		counts:   make(map[string]int),
	}, nil
}

// roll makes one seeded decision at (site, key): it advances the pair's
// attempt counter and reports whether the fault fires, plus the raw
// hash (for deriving deterministic victim offsets) and the attempt the
// decision belongs to.
func (i *Injector) roll(site, key string, rate float64) (fire bool, h uint64, attempt uint64) {
	if rate <= 0 {
		return false, 0, 0
	}
	i.mu.Lock()
	ck := site + "\x00" + key
	attempt = i.attempts[ck]
	i.attempts[ck] = attempt + 1
	i.mu.Unlock()

	h = fnv64.FoldU64(fnv64.Offset, uint64(i.cfg.Seed))
	h = fnv64.FoldString(h, site)
	h = fnv64.FoldU64(h, 0)
	h = fnv64.FoldString(h, key)
	h = fnv64.FoldU64(h, attempt)
	// 53 uniform bits, like rand.Float64.
	fire = float64(h>>11)/(1<<53) < rate
	if fire {
		i.mu.Lock()
		i.fired++
		i.counts[site]++
		i.mu.Unlock()
	}
	return fire, h, attempt
}

// Summary renders a one-line report: total faults and per-site counts
// in sorted site order — the line chaos runs print and replay runs diff.
func (i *Injector) Summary() string {
	i.mu.Lock()
	defer i.mu.Unlock()
	sites := make([]string, 0, len(i.counts))
	for s := range i.counts {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	var b strings.Builder
	fmt.Fprintf(&b, "fault: seed=%d injected=%d", i.cfg.Seed, i.fired)
	for n, s := range sites {
		if n == 0 {
			b.WriteString(" (")
		} else {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%d", s, i.counts[s])
	}
	if len(sites) > 0 {
		b.WriteString(")")
	}
	return b.String()
}

// --- read layer ----------------------------------------------------------

// WrapFS returns a copy of fs whose content-backed files stream through
// the injector's read layer (vfs.File.WithStream). Names, sizes, shard
// locality and stored sums are preserved — a plan derived from the
// wrapped FS fingerprints identically to one from the original — but
// zero-copy raw views are dropped, forcing every read through the
// (faultable) streaming path.
func (i *Injector) WrapFS(fs *vfs.FS) (*vfs.FS, error) {
	out := vfs.NewFS()
	for _, f := range fs.List() {
		if err := out.Add(f.WithStream(i.newReader)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// newReader wraps one freshly-opened content stream with this open's
// fault decisions. Each open rolls anew (the per-file attempt counter
// advances), so a retried read can succeed where the first one failed —
// the property the retry layer's chaos tests lean on.
func (i *Injector) newReader(name string, size int64, base io.Reader) io.Reader {
	r := &faultReader{base: base, size: size, failAt: -1, cutAt: -1, flipAt: -1}
	r.name = name
	if size > 0 {
		if fire, h, _ := i.roll(SiteReadErr, name, i.cfg.ReadErr); fire {
			r.failAt = int64(h % uint64(size))
		}
		if fire, h, _ := i.roll(SiteShortRead, name, i.cfg.ShortRead); fire {
			r.cutAt = int64(h % uint64(size))
		}
		if fire, h, _ := i.roll(SiteBitFlip, name, i.cfg.BitFlip); fire {
			r.flipAt = int64(h % uint64(size))
		}
		if fire, _, _ := i.roll(SiteReadLatency, name, i.cfg.LatencyRate); fire {
			r.latency = i.cfg.Latency
		}
	}
	return r
}

// faultReader streams base, applying at most one of each fault decided
// at open time: an injected transient error at failAt, a torn EOF at
// cutAt, a single flipped bit at flipAt, and optional first-byte
// latency.
type faultReader struct {
	base io.Reader
	name string
	size int64
	pos  int64

	failAt  int64 // byte position to fail at (-1: none)
	cutAt   int64 // byte position to end the stream at (-1: none)
	flipAt  int64 // byte position to flip (-1: none)
	latency time.Duration
	started bool
}

func (r *faultReader) Read(p []byte) (int, error) {
	if !r.started {
		r.started = true
		if r.latency > 0 {
			time.Sleep(r.latency)
		}
	}
	// The earliest truncating fault bounds how far this stream goes.
	limit := r.size
	if r.failAt >= 0 && r.failAt < limit {
		limit = r.failAt
	}
	if r.cutAt >= 0 && r.cutAt < limit {
		limit = r.cutAt
	}
	if r.pos >= limit {
		switch {
		case r.failAt >= 0 && limit == r.failAt:
			return 0, errs.Unavailable("fault: injected read error in %q at byte %d", r.name, r.failAt)
		case r.cutAt >= 0 && limit == r.cutAt:
			return 0, io.EOF // torn short read: size validation catches it
		}
		return r.base.Read(p) // drain the genuine tail/EOF
	}
	if max := limit - r.pos; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := r.base.Read(p)
	if n > 0 && r.flipAt >= r.pos && r.flipAt < r.pos+int64(n) {
		p[r.flipAt-r.pos] ^= 0x01
	}
	r.pos += int64(n)
	return n, err
}

// Close forwards to the underlying stream when it holds a resource.
func (r *faultReader) Close() error {
	if c, ok := r.base.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// --- task layer ----------------------------------------------------------

// TaskKill returns a worker fault hook (dist.Local.SetFault /
// WorkerServer.SetFault): each scan attempt of (worker, task) rolls the
// kill dice, and a fired kill aborts the attempt with ErrUnavailable —
// indistinguishable from the worker process dying mid-task, which is
// the point.
func (i *Injector) TaskKill(worker string) func(ctx context.Context, task int) error {
	return func(ctx context.Context, task int) error {
		key := worker + "#" + strconv.Itoa(task)
		if fire, _, attempt := i.roll(SiteKill, key, i.cfg.Kill); fire {
			return errs.Unavailable("fault: injected kill of worker %q on task %d (attempt %d)", worker, task, attempt)
		}
		return nil
	}
}

// --- HTTP layer ----------------------------------------------------------

// Transport wraps base (nil: http.DefaultTransport) with the injector's
// HTTP faults, keyed by "METHOD path". Refusals happen before any bytes
// are exchanged; 429/503 are synthesized with the configured
// Retry-After; stalls pass the request through and kill the response
// body mid-stream.
func (i *Injector) Transport(base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	return &transport{inj: i, base: base}
}

type transport struct {
	inj  *Injector
	base http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	i := t.inj
	key := req.Method + " " + req.URL.Path
	if fire, _, _ := i.roll(SiteRefuse, key, i.cfg.Refuse); fire {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	}
	if fire, _, _ := i.roll(Site503, key, i.cfg.HTTP503); fire {
		if req.Body != nil {
			req.Body.Close()
		}
		return synthesized(req, 503, "503 Service Unavailable",
			"fault: injected 503 (service unavailable)", i.cfg.RetryAfterS), nil
	}
	if fire, _, _ := i.roll(Site429, key, i.cfg.HTTP429); fire {
		if req.Body != nil {
			req.Body.Close()
		}
		return synthesized(req, 429, "429 Too Many Requests",
			"fault: injected 429 (too many requests)", i.cfg.RetryAfterS), nil
	}
	stall, h, _ := i.roll(SiteStall, key, i.cfg.Stall)
	resp, err := t.base.RoundTrip(req)
	if err != nil || !stall {
		return resp, err
	}
	// Let a deterministic number of body bytes through, then die.
	cut := int64(1 + h%4096)
	resp.Body = &stallBody{rc: resp.Body, remaining: cut, latency: i.cfg.Latency}
	return resp, nil
}

// synthesized builds a fake error response in the repository's JSON
// envelope, indented as errs.WriteJSON writes it.
func synthesized(req *http.Request, code int, status, msg string, retryAfterS int) *http.Response {
	body, _ := json.MarshalIndent(errs.ErrorBody{Error: msg, Status: code}, "", "  ") // a struct of string and int cannot fail
	body = append(body, '\n')
	h := http.Header{}
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", strconv.Itoa(retryAfterS))
	return &http.Response{
		Status:        status,
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// stallBody forwards up to remaining bytes of the real response, then
// (after an optional stall) dies with a connection reset — the
// mid-stream worker death HTTPWorker maps onto ErrUnavailable.
type stallBody struct {
	rc        io.ReadCloser
	remaining int64
	latency   time.Duration
	stalled   bool
}

func (s *stallBody) Read(p []byte) (int, error) {
	if s.remaining <= 0 {
		if !s.stalled {
			s.stalled = true
			if s.latency > 0 {
				time.Sleep(s.latency)
			}
		}
		return 0, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	}
	if int64(len(p)) > s.remaining {
		p = p[:s.remaining]
	}
	n, err := s.rc.Read(p)
	s.remaining -= int64(n)
	return n, err
}

func (s *stallBody) Close() error { return s.rc.Close() }
