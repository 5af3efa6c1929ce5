package fault

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/errs"
	"repro/internal/vfs"
)

func mustNew(t *testing.T, cfg Config) *Injector {
	t.Helper()
	inj, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return inj
}

// TestDecisionsDeterministic pins the replayability contract: two
// injectors with the same seed make identical decisions for identical
// (site, key, attempt) streams, and a different seed diverges.
func TestDecisionsDeterministic(t *testing.T) {
	decisions := func(seed int64) []bool {
		inj := mustNew(t, Config{Seed: seed, Kill: 0.5})
		hook := inj.TaskKill("w0")
		out := make([]bool, 0, 64)
		for task := 0; task < 8; task++ {
			for attempt := 0; attempt < 8; attempt++ {
				out = append(out, hook(context.Background(), task) != nil)
			}
		}
		return out
	}
	a, b := decisions(7), decisions(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault schedules")
	}
	if reflect.DeepEqual(a, decisions(8)) {
		t.Fatal("different seeds produced identical fault schedules")
	}
	fired := 0
	for _, d := range a {
		if d {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("kill rate 0.5 fired %d/%d times — dice look broken", fired, len(a))
	}
}

// TestDecisionsIndependentOfInterleaving pins that concurrent rolls on
// *different* keys cannot perturb each other's schedules: per-key
// decisions depend only on that key's attempt counter.
func TestDecisionsIndependentOfInterleaving(t *testing.T) {
	run := func(parallel bool) map[string][]bool {
		inj := mustNew(t, Config{Seed: 3, Kill: 0.5})
		hook := inj.TaskKill("w0")
		out := make(map[string][]bool)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for task := 0; task < 4; task++ {
			record := func(task int) {
				local := make([]bool, 0, 8)
				for attempt := 0; attempt < 8; attempt++ {
					local = append(local, hook(context.Background(), task) != nil)
				}
				mu.Lock()
				out[fmt.Sprintf("t%d", task)] = local
				mu.Unlock()
			}
			if parallel {
				wg.Add(1)
				go func(task int) { defer wg.Done(); record(task) }(task)
			} else {
				record(task)
			}
		}
		wg.Wait()
		return out
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Fatal("interleaving changed per-key fault schedules")
	}
}

func testFS(t *testing.T, n int) *vfs.FS {
	t.Helper()
	fs := vfs.NewFS()
	for i := 0; i < n; i++ {
		data := bytes.Repeat([]byte{byte('a' + i%26)}, 400+i*13)
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("doc-%03d.txt", i), data)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// TestWrapFSPreservesShape pins that wrapping changes no metadata: same
// names, sizes, locality — so plan fingerprints match the clean corpus —
// and raw views are stripped.
func TestWrapFSPreservesShape(t *testing.T) {
	fs := vfs.NewFS()
	raw := []byte("hello raw world")
	f := vfs.BytesFile("a.txt", raw).WithLocality("shard-000", 64).WithRawBytes(raw)
	if err := fs.Add(f); err != nil {
		t.Fatal(err)
	}
	inj := mustNew(t, Config{Seed: 1, ReadErr: 1})
	wrapped, err := inj.WrapFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := wrapped.Get("a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size != f.Size {
		t.Fatalf("size changed: %d -> %d", f.Size, g.Size)
	}
	shard, off := g.Locality()
	if shard != "shard-000" || off != 64 {
		t.Fatalf("locality changed: %q %d", shard, off)
	}
	if _, err := g.Bytes(); err == nil {
		t.Fatal("wrapped file kept its raw view — faults would be bypassed")
	}
}

// TestReadErrorInjection: a read-error fault surfaces as a retryable
// ErrUnavailable, and a later open of the same file (new attempt) can
// succeed — the retry layer's bread and butter.
func TestReadErrorInjection(t *testing.T) {
	fs := testFS(t, 1)
	inj := mustNew(t, Config{Seed: 1, ReadErr: 1})
	wrapped, err := inj.WrapFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := wrapped.Get("doc-000.txt")
	if _, err := f.ReadAll(); !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if !errs.IsRetryable(func() error { _, err := f.ReadAll(); return err }()) {
		t.Fatal("injected read error must be retryable")
	}
	if inj.counts[SiteReadErr] < 2 {
		t.Fatalf("counts = %v, want >= 2 read-err", inj.counts)
	}
}

// TestReadErrorRetrySucceeds: at a 0.5 rate some open of the same file
// eventually streams clean, and the clean bytes are the true bytes.
func TestReadErrorRetrySucceeds(t *testing.T) {
	fs := testFS(t, 1)
	orig, _ := fs.Get("doc-000.txt")
	want, err := orig.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want = append([]byte(nil), want...)
	inj := mustNew(t, Config{Seed: 2, ReadErr: 0.5})
	wrapped, _ := inj.WrapFS(fs)
	f, _ := wrapped.Get("doc-000.txt")
	for attempt := 0; attempt < 64; attempt++ {
		got, err := f.ReadAll()
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatal("clean read returned different bytes")
			}
			return
		}
	}
	t.Fatal("no clean read in 64 attempts at rate 0.5")
}

// TestShortReadViolatesDeclaredSize: a torn read must fail size
// validation loudly (never silently yield fewer bytes).
func TestShortReadViolatesDeclaredSize(t *testing.T) {
	fs := testFS(t, 1)
	inj := mustNew(t, Config{Seed: 1, ShortRead: 1})
	wrapped, _ := inj.WrapFS(fs)
	f, _ := wrapped.Get("doc-000.txt")
	if _, err := f.ReadAll(); err == nil {
		t.Fatal("torn read passed size validation")
	}
}

// TestBitFlipChangesExactlyOneByte: the flip is silent at the byte level
// (same length, one bit differs) — detecting it is the checksum
// layer's job, which is why -verify-reads exists.
func TestBitFlipChangesExactlyOneByte(t *testing.T) {
	fs := testFS(t, 1)
	orig, _ := fs.Get("doc-000.txt")
	want, _ := orig.ReadAll()
	want = append([]byte(nil), want...)
	inj := mustNew(t, Config{Seed: 5, BitFlip: 1})
	wrapped, _ := inj.WrapFS(fs)
	f, _ := wrapped.Get("doc-000.txt")
	got, err := f.ReadAll()
	if err != nil {
		t.Fatalf("bit flip must not fail the read itself: %v", err)
	}
	diff := 0
	for i := range want {
		if want[i] != got[i] {
			diff++
			if want[i]^got[i] != 0x01 {
				t.Fatalf("byte %d changed by more than one bit: %02x -> %02x", i, want[i], got[i])
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
}

// TestTransportRefuse: a refused request surfaces ECONNREFUSED without
// touching the server.
func TestTransportRefuse(t *testing.T) {
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
	}))
	defer srv.Close()
	inj := mustNew(t, Config{Seed: 1, Refuse: 1})
	hc := &http.Client{Transport: inj.Transport(nil)}
	_, err := hc.Get(srv.URL + "/v1/scan")
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("err = %v, want ECONNREFUSED", err)
	}
	if !errs.IsRetryable(errors.Unwrap(err)) { // unwrap the url.Error
		t.Fatal("refused connection must be retryable")
	}
	if hits != 0 {
		t.Fatal("refused request reached the server")
	}
}

// TestTransport503And429 pin the synthesized responses: right status,
// Retry-After header, JSON envelope.
func TestTransport503And429(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	for _, tc := range []struct {
		cfg  Config
		code int
	}{
		{Config{Seed: 1, HTTP503: 1, RetryAfterS: 2}, 503},
		{Config{Seed: 1, HTTP429: 1, RetryAfterS: 2}, 429},
	} {
		inj := mustNew(t, tc.cfg)
		hc := &http.Client{Transport: inj.Transport(nil)}
		resp, err := hc.Get(srv.URL + "/v1/scan")
		if err != nil {
			t.Fatalf("%d: %v", tc.code, err)
		}
		if resp.StatusCode != tc.code {
			t.Fatalf("status = %d, want %d", resp.StatusCode, tc.code)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Fatalf("Retry-After = %q, want \"2\"", ra)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Contains(body, []byte("injected")) {
			t.Fatalf("body %q lacks the injected marker", body)
		}
		// The body is the shared envelope, byte for byte what a daemon's
		// errs.WriteJSON would send, and the client-side inverse reads it
		// back as "come back in two seconds".
		var eb errs.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Status != tc.code || !strings.Contains(eb.Error, "injected") {
			t.Fatalf("envelope %+v (decode: %v)", eb, err)
		}
		rec := httptest.NewRecorder()
		errs.WriteJSON(rec, tc.code, eb)
		if !bytes.Equal(rec.Body.Bytes(), body) || int64(len(body)) != resp.ContentLength {
			t.Fatalf("body %q (Content-Length %d), errs.WriteJSON writes %q", body, resp.ContentLength, rec.Body.Bytes())
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		err = errs.FromHTTPResponse(resp)
		if d, ok := errs.RetryAfterHint(err); !errors.Is(err, errs.ErrUnavailable) || !ok || d != 2*time.Second {
			t.Fatalf("inverse = %v (hint %v, %v), want ErrUnavailable after 2s", err, d, ok)
		}
	}
}

// TestTransportStall: the response starts, then dies mid-body with a
// reset — the truncated-response path clients map onto ErrUnavailable.
func TestTransportStall(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 64<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(payload)
	}))
	defer srv.Close()
	inj := mustNew(t, Config{Seed: 1, Stall: 1})
	hc := &http.Client{Transport: inj.Transport(nil)}
	resp, err := hc.Get(srv.URL + "/v1/scan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err == nil {
		t.Fatal("stalled body completed cleanly")
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("err = %v, want ECONNRESET", err)
	}
	if n <= 0 || n >= int64(len(payload)) {
		t.Fatalf("body died after %d bytes, want mid-stream", n)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=7,readerr=0.1,kill=0.05,latency=2ms,latencyrate=0.25,http503=0.1,retryafter=1")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed: 7, ReadErr: 0.1, Kill: 0.05,
		Latency: 2 * time.Millisecond, LatencyRate: 0.25,
		HTTP503: 0.1, RetryAfterS: 1,
	}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config reports disabled")
	}
	for _, bad := range []string{
		"bogus=1", "readerr=2", "readerr", "seed=x", "kill=-0.1",
		"readerr=NaN", "kill=nan", "stall=+Inf",
		"retryafter=-5,http503=1", "latency=-5ms", "latency=-5ms,latencyrate=0.5",
	} {
		if _, err := ParseSpec(bad); !errors.Is(err, errs.ErrInvalid) {
			t.Fatalf("ParseSpec(%q) = %v, want ErrInvalid", bad, err)
		}
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: cfg=%+v err=%v, want disabled no-error", cfg, err)
	}
	// A latency rate without an explicit latency gets a usable default.
	cfg, err = ParseSpec("latencyrate=0.5")
	if err != nil || cfg.Latency <= 0 {
		t.Fatalf("latencyrate without latency: cfg=%+v err=%v", cfg, err)
	}
}

// FuzzParseSpec: any spec string parses or is refused with ErrInvalid,
// never a panic, and an accepted config is one New accepts too: every
// rate in [0, 1], no negative latency or Retry-After.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"seed=7,readerr=0.1,kill=0.05,latency=2ms,latencyrate=0.25,http503=0.1,retryafter=1",
		"", "readerr=NaN", "retryafter=-5,http503=1", "latency=-5ms", "latencyrate=0.5", "stall=1e-300",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			if !errors.Is(err, errs.ErrInvalid) {
				t.Fatalf("ParseSpec(%q) refused untyped: %v", spec, err)
			}
			return
		}
		for _, r := range []float64{cfg.ReadErr, cfg.ShortRead, cfg.BitFlip, cfg.LatencyRate, cfg.Kill,
			cfg.Refuse, cfg.HTTP503, cfg.HTTP429, cfg.Stall} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseSpec(%q) accepted rate %v: %+v", spec, r, cfg)
			}
		}
		if cfg.Latency < 0 || cfg.RetryAfterS < 0 {
			t.Fatalf("ParseSpec(%q) accepted a negative duration: %+v", spec, cfg)
		}
		if _, err := New(cfg); err != nil {
			t.Fatalf("ParseSpec(%q) accepted what New refuses: %v", spec, err)
		}
	})
}

func TestSummaryDeterministic(t *testing.T) {
	mk := func() string {
		inj := mustNew(t, Config{Seed: 9, Kill: 0.5})
		hook := inj.TaskKill("w0")
		for task := 0; task < 16; task++ {
			hook(context.Background(), task)
		}
		return inj.Summary()
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("summaries differ across same-seed replays:\n%s\n%s", a, b)
	}
	if fired := mustNew(t, Config{Seed: 9}).Summary(); fired != "fault: seed=9 injected=0" {
		t.Fatalf("quiet summary = %q", fired)
	}
}
