package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/scan"
	"repro/internal/textproc"
	"repro/internal/vfs"
)

// testFS builds a small deterministic content-backed corpus.
func testFS(t testing.TB) *vfs.FS {
	t.Helper()
	fs := vfs.NewFS()
	texts := []string{
		"The quick brown fox jumps over the lazy dog. The dog sleeps.\n",
		"error: the market report mentions the president twice. president!\n",
		strings.Repeat("a normal sentence with the usual words and the odd error. ", 20),
		"lines\nand\nmore lines\nwith the final error unterminated",
		"",
	}
	for i, text := range texts {
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("f-%02d", i), []byte(text))); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// newTestServer builds a Server over fs and wraps it in an httptest
// server. The returned files slice must outlive the server (sources
// borrow it).
func newTestServer(t *testing.T, fs *vfs.FS, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	files := fs.List()
	srcs := scan.SequentialOrder(files)
	srv, err := New(context.Background(), srcs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestGrepMatchesLibrary pins the grep endpoint to the direct library
// path: same kernel, same engine, so the counts must be identical.
func TestGrepMatchesLibrary(t *testing.T) {
	fs := testFS(t)
	_, ts := newTestServer(t, fs, Config{MaxInFlight: 2, QueueDepth: 8})

	patterns := []string{"the", "error", "president"}
	ms, err := textproc.NewMultiSearcher(patterns)
	if err != nil {
		t.Fatal(err)
	}
	mk := textproc.NewMatchKernel(ms)
	files := fs.List()
	if err := scan.Run(context.Background(), scan.SequentialOrder(files), scan.Options{}, mk); err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: patterns, PerFile: true})
	if resp.StatusCode != 200 {
		t.Fatalf("grep status %d: %s", resp.StatusCode, data)
	}
	var got GrepResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Matches != mk.TotalMatches() {
		t.Errorf("matches = %d, library says %d", got.Matches, mk.TotalMatches())
	}
	for i, want := range mk.Totals() {
		if got.Totals[i] != want {
			t.Errorf("totals[%d] = %d, library says %d", i, got.Totals[i], want)
		}
	}
	if len(got.PerFile) != len(files) {
		t.Fatalf("per_file has %d entries, want %d", len(got.PerFile), len(files))
	}
	for i, f := range mk.Files() {
		if got.PerFile[i].Name != f.Name || got.PerFile[i].Matches != f.Matches {
			t.Errorf("per_file[%d] = %+v, library says %+v", i, got.PerFile[i], f)
		}
	}
}

// libraryComplexityMean is the complexity mean the library's Measurement
// implies: its per-file map folded in FileStats (scan input) order.
func libraryComplexityMean(m *core.Measurement) float64 {
	var sum float64
	for _, fs := range m.FileStats {
		sum += m.Complexity[fs.Name]
	}
	return sum / float64(len(m.Complexity))
}

// encodeIndented renders v the way errs.WriteJSON writes a body.
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMeasureMatchesLibrary pins the measure endpoint to
// core.MeasurePlanCtx — the exact call the one-shot CLI makes — with
// and without patterns, folded or not, with and without complexity: every
// response field but elapsed_ms equals the library's, and the body is the
// bytes the library's answer encodes to.
func TestMeasureMatchesLibrary(t *testing.T) {
	fs := testFS(t)
	_, ts := newTestServer(t, fs, Config{MaxInFlight: 2, QueueDepth: 8})
	srcs := scan.SequentialOrder(fs.List())

	for _, pc := range []struct {
		name     string
		patterns []string
		fold     bool
	}{
		{"no-patterns", nil, false},
		{"patterns", []string{"error", "the", "President"}, false},
		{"patterns-fold", []string{"error", "the", "President"}, true},
	} {
		for _, complexity := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/complexity=%v", pc.name, complexity), func(t *testing.T) {
				m, err := core.MeasurePlanCtx(context.Background(), scan.NewPlan(srcs, scan.PlanOptions{}),
					core.MeasureOptions{Patterns: pc.patterns, FoldCase: pc.fold, Complexity: complexity})
				if err != nil {
					t.Fatal(err)
				}
				want := MeasureResponse{
					Files:        m.Files,
					Bytes:        m.Bytes,
					Tokens:       m.Stats.Tokens,
					Words:        m.Stats.Words,
					Sentences:    m.Stats.Sentences,
					Lines:        m.Lines,
					MeanSentence: m.Stats.MeanSentence,
					MaxSentence:  m.Stats.MaxSentence,
					Patterns:     m.Patterns,
					Totals:       m.PatternTotals,
					Matches:      m.Matches,
				}
				if complexity {
					want.ComplexityMean = libraryComplexityMean(m)
				}

				resp, data := postJSON(t, ts.URL+"/v1/measure",
					MeasureRequest{Patterns: pc.patterns, Fold: pc.fold, Complexity: complexity})
				if resp.StatusCode != 200 {
					t.Fatalf("measure status %d: %s", resp.StatusCode, data)
				}
				var got MeasureResponse
				if err := json.Unmarshal(data, &got); err != nil {
					t.Fatal(err)
				}
				want.ElapsedMS = got.ElapsedMS
				if !reflect.DeepEqual(got, want) {
					t.Errorf("measure = %+v, library says %+v", got, want)
				}
				if enc := encodeIndented(t, &want); !bytes.Equal(data, enc) {
					t.Errorf("measure body differs from the library's answer encoded:\n%s\nwant\n%s", data, enc)
				}
			})
		}
	}
}

// TestManifestBodyEncodedOnce: the manifest bytes New encodes are what
// errs.WriteJSON writes for the same document, headers included.
func TestManifestBodyEncodedOnce(t *testing.T) {
	fs := testFS(t)
	srv, _ := newTestServer(t, fs, Config{MaxInFlight: 2, QueueDepth: 8})

	got := httptest.NewRecorder()
	srv.Handler().ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/v1/manifest", nil))
	var man ManifestResponse
	if err := json.Unmarshal(got.Body.Bytes(), &man); err != nil {
		t.Fatal(err)
	}

	want := httptest.NewRecorder()
	errs.WriteJSON(want, http.StatusOK, &ManifestResponse{
		Files:       srv.files,
		TotalBytes:  srv.bytes,
		Shards:      srv.shards,
		Fingerprint: fmt.Sprintf("%016x", srv.fingerprint),
		Entries:     man.Entries,
	})
	if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("manifest: status %d body\n%s\nerrs.WriteJSON gives %d\n%s", got.Code, got.Body, want.Code, want.Body)
	}
	if ct := got.Header().Get("Content-Type"); ct != want.Header().Get("Content-Type") {
		t.Errorf("Content-Type %q, errs.WriteJSON sets %q", ct, want.Header().Get("Content-Type"))
	}
	if cl := got.Header().Get("Content-Length"); cl != fmt.Sprint(want.Body.Len()) {
		t.Errorf("Content-Length %q, body is %d bytes", cl, want.Body.Len())
	}
	if len(man.Entries) != fs.Len() {
		t.Fatalf("manifest lists %d entries, corpus has %d", len(man.Entries), fs.Len())
	}
	for i, sum := range srv.sums {
		if e := man.Entries[i]; e.Name != sum.Name || e.Size != sum.Size || e.Checksum != fmt.Sprintf("%016x", sum.Sum) {
			t.Errorf("entry %d = %+v, warm scan has %+v", i, e, sum)
		}
	}
}

// TestManifestStatsVerifyHealthz covers the cached-document endpoints and
// a clean verification pass.
func TestManifestStatsVerifyHealthz(t *testing.T) {
	fs := testFS(t)
	srv, ts := newTestServer(t, fs, Config{MaxInFlight: 2, QueueDepth: 8})

	var man ManifestResponse
	if resp := getJSON(t, ts.URL+"/v1/manifest", &man); resp.StatusCode != 200 {
		t.Fatalf("manifest status %d", resp.StatusCode)
	}
	if man.Files != fs.Len() || man.TotalBytes != fs.TotalSize() || len(man.Entries) != fs.Len() {
		t.Errorf("manifest = %d files %d bytes %d entries, corpus has %d/%d",
			man.Files, man.TotalBytes, len(man.Entries), fs.Len(), fs.TotalSize())
	}
	wantMan, err := scan.BuildManifestCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range man.Entries {
		w := wantMan[e.Name]
		if e.Size != w.Size || e.Checksum != fmt.Sprintf("%016x", w.Checksum) {
			t.Errorf("manifest entry %s = %+v, vfs manifest says %+v", e.Name, e, w)
		}
	}

	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Files != fs.Len() || st.Tokens == 0 || st.Lines == 0 {
		t.Errorf("stats = %+v, want non-trivial token/line counts over %d files", st, fs.Len())
	}

	resp, data := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{})
	if resp.StatusCode != 200 {
		t.Fatalf("verify status %d: %s", resp.StatusCode, data)
	}
	var ver VerifyResponse
	if err := json.Unmarshal(data, &ver); err != nil {
		t.Fatal(err)
	}
	if !ver.OK || ver.Fingerprint != man.Fingerprint {
		t.Errorf("verify = %+v, manifest fingerprint %s", ver, man.Fingerprint)
	}

	var hz HealthzResponse
	if resp := getJSON(t, ts.URL+"/healthz", &hz); resp.StatusCode != 200 || hz.Status != "ok" {
		t.Errorf("healthz = %d %q, want 200 ok", resp.StatusCode, hz.Status)
	}
	if srv.Draining() {
		t.Error("fresh server reports draining")
	}
}

// TestMetricsAfterTraffic checks /metrics reflects completed requests:
// counters move and the latency percentiles are populated and ordered.
func TestMetricsAfterTraffic(t *testing.T) {
	fs := testFS(t)
	_, ts := newTestServer(t, fs, Config{MaxInFlight: 2, QueueDepth: 8})

	for i := 0; i < 5; i++ {
		if resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}}); resp.StatusCode != 200 {
			t.Fatalf("grep %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	ep, ok := snap.Endpoints["grep"]
	if !ok {
		t.Fatalf("metrics missing grep endpoint: %+v", snap)
	}
	if ep.Requests != 5 || ep.Errors != 0 || ep.Cancels != 0 {
		t.Errorf("grep endpoint = %+v, want 5 clean requests", ep)
	}
	if ep.P50MS <= 0 || ep.P50MS > ep.P95MS || ep.P95MS > ep.P99MS || ep.P99MS > ep.MaxMS*1.13 {
		t.Errorf("percentiles not ordered: p50 %v p95 %v p99 %v max %v", ep.P50MS, ep.P95MS, ep.P99MS, ep.MaxMS)
	}
	if snap.InFlight != 0 || snap.QueueDepth != 0 || snap.InFlightBytes != 0 {
		t.Errorf("idle gauges non-zero: %+v", snap)
	}
}

// manyPatterns returns n one-byte patterns.
func manyPatterns(n int) []string {
	p := make([]string, n)
	for i := range p {
		p[i] = "a"
	}
	return p
}

// mustJSON marshals a request body whose encoding cannot fail.
func mustJSON(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// hostileRequests are requests a client may not make the server act on:
// each must be refused with 400 in the shared envelope (TestStatusMapping)
// and seeds FuzzServeRequest.
func hostileRequests() map[string]struct{ path, body, header string } {
	return map[string]struct{ path, body, header string }{
		"oversized-body":     {path: "/v1/verify", body: `{"timeout_ms": 1` + strings.Repeat(" ", errs.MaxRequestBytes) + `}`},
		"too-many-patterns":  {path: "/v1/grep", body: mustJSON(GrepRequest{Patterns: manyPatterns(textproc.MaxPatterns + 1)})},
		"measure-patterns":   {path: "/v1/measure", body: mustJSON(MeasureRequest{Patterns: manyPatterns(textproc.MaxPatterns + 1)})},
		"pattern-bytes":      {path: "/v1/grep", body: mustJSON(GrepRequest{Patterns: []string{strings.Repeat("a", textproc.MaxPatternBytes+1)}})},
		"2MiB-pattern":       {path: "/v1/grep", body: mustJSON(GrepRequest{Patterns: []string{strings.Repeat("a", 2<<20)}})},
		"timeout-ceiling":    {path: "/v1/verify", body: mustJSON(VerifyRequest{TimeoutMS: maxTimeout.Milliseconds() + 1})},
		"timeout-overflow":   {path: "/v1/verify", body: `{"timeout_ms": 9223372036854775807}`},
		"header-ceiling":     {path: "/v1/verify", body: `{}`, header: "99999999999999999999"},
		"second-value":       {path: "/v1/verify", body: `{}{}`},
		"trailing-garbage":   {path: "/v1/grep", body: `{"patterns":["the"]}!`},
		"unbalanced-literal": {path: "/v1/measure", body: `{"patterns":["the"]`},
	}
}

// TestStatusMapping covers the HTTP error surface: malformed body and
// missing patterns are 400, wrong method 405, unknown path 404, an
// expired per-request timeout 504, and the error envelope carries the
// stage.
func TestStatusMapping(t *testing.T) {
	fs := testFS(t)
	cfg := Config{MaxInFlight: 1, QueueDepth: 1}
	cfg.gate = func(ctx context.Context) error {
		// Hold until the request deadline fires so timeout tests are
		// deterministic; pass through instantly otherwise.
		if _, ok := ctx.Deadline(); ok {
			<-ctx.Done()
			return errs.FromContext(ctx)
		}
		return nil
	}
	_, ts := newTestServer(t, fs, cfg)

	resp, data := postJSON(t, ts.URL+"/v1/grep", GrepRequest{})
	if resp.StatusCode != 400 {
		t.Errorf("no patterns: status %d: %s", resp.StatusCode, data)
	}
	var eb errs.ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Stage != "grep" || eb.Status != 400 {
		t.Errorf("no-patterns envelope = %+v (err %v), want stage grep status 400", eb, err)
	}

	r2, err := http.Post(ts.URL+"/v1/grep", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Errorf("malformed body: status %d, want 400", r2.StatusCode)
	}

	resp, data = postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{""}})
	if resp.StatusCode != 400 {
		t.Errorf("empty pattern: status %d: %s", resp.StatusCode, data)
	}

	r3, err := http.Get(ts.URL + "/v1/grep")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != 405 {
		t.Errorf("GET on POST endpoint: status %d, want 405", r3.StatusCode)
	}

	r4, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != 404 {
		t.Errorf("unknown path: status %d, want 404", r4.StatusCode)
	}

	resp, data = postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: []string{"the"}, TimeoutMS: 20})
	if resp.StatusCode != 504 {
		t.Errorf("expired timeout: status %d: %s, want 504", resp.StatusCode, data)
	}

	// What a client may not make the server do: each is refused with 400 in
	// the shared envelope before an automaton is built or a slot is taken.
	for name, tc := range hostileRequests() {
		t.Run(name, func(t *testing.T) {
			req, err := http.NewRequest("POST", ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.header != "" {
				req.Header.Set("X-Timeout-Ms", tc.header)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb errs.ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || resp.StatusCode != 400 || eb.Status != 400 || eb.Error == "" {
				t.Errorf("status %d, envelope %+v (decode: %v), want 400", resp.StatusCode, eb, err)
			}
		})
	}
	// The caps are inclusive, and whitespace after the value is not data.
	resp, data = postJSON(t, ts.URL+"/v1/grep", GrepRequest{Patterns: manyPatterns(textproc.MaxPatterns)})
	if resp.StatusCode != 200 {
		t.Errorf("%d patterns: status %d: %s", textproc.MaxPatterns, resp.StatusCode, data)
	}
	r5, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader("{} \n"))
	if err != nil {
		t.Fatal(err)
	}
	r5.Body.Close()
	if r5.StatusCode != 200 {
		t.Errorf("trailing whitespace: status %d, want 200", r5.StatusCode)
	}
}

// TestTimeoutHeader exercises the X-Timeout-Ms fallback for requests whose
// body carries no timeout.
func TestTimeoutHeader(t *testing.T) {
	fs := testFS(t)
	cfg := Config{MaxInFlight: 1, QueueDepth: 1}
	cfg.gate = func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			<-ctx.Done()
			return errs.FromContext(ctx)
		}
		return nil
	}
	_, ts := newTestServer(t, fs, cfg)

	body, _ := json.Marshal(VerifyRequest{})
	req, err := http.NewRequest("POST", ts.URL+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Timeout-Ms", "20")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 504 {
		t.Errorf("header timeout: status %d, want 504", resp.StatusCode)
	}

	// A cancelled request observed server-side counts as a cancel, and the
	// endpoint stays usable afterwards.
	if resp, data := postJSON(t, ts.URL+"/v1/verify", VerifyRequest{}); resp.StatusCode != 200 {
		t.Fatalf("verify after timeout: status %d: %s", resp.StatusCode, data)
	}
	var snap Snapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Endpoints["verify"].Cancels != 1 {
		t.Errorf("verify cancels = %d, want 1", snap.Endpoints["verify"].Cancels)
	}
}

// TestWarmupCancelled checks New propagates a cancelled warm-up scan as a
// typed error instead of returning a half-built server.
func TestWarmupCancelled(t *testing.T) {
	fs := testFS(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(ctx, scan.SequentialOrder(fs.List()), Config{})
	if err == nil || !errs.IsCancellation(err) {
		t.Fatalf("New on dead context = %v, want cancellation", err)
	}
	if errs.StageOf(err) != "serve-warmup" {
		t.Errorf("stage = %q, want serve-warmup", errs.StageOf(err))
	}
}
