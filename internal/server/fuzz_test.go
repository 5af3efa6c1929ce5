package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/errs"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// FuzzServeRequest posts arbitrary bytes as the body of every scan
// endpoint through Handler(). Whatever the bytes, the server answers: no
// panic and no 500. A 200 body decodes as the endpoint's response type and
// any other as the shared errs.ErrorBody carrying the same status — a 504
// from a fuzzed timeout_ms included, which is a typed outcome, not a
// failure.
func FuzzServeRequest(f *testing.F) {
	for _, body := range []any{
		GrepRequest{Patterns: []string{"the", "error"}},
		GrepRequest{Patterns: []string{"The", "ERROR"}, Fold: true, PerFile: true, TimeoutMS: 5000},
		MeasureRequest{},
		MeasureRequest{Patterns: []string{"president"}, Fold: true, Complexity: true, TimeoutMS: 1},
		VerifyRequest{TimeoutMS: 5000},
		GrepRequest{},
		GrepRequest{Patterns: []string{""}},
	} {
		f.Add([]byte(mustJSON(body)))
	}
	f.Add([]byte("{not json"))
	f.Add([]byte("{} \n"))
	f.Add([]byte(nil))
	// The bodies over the request cap are left to TestStatusMapping: a
	// megabyte seed makes every mutation and minimization copy megabytes,
	// and the decoder stops reading at the cap anyway.
	for _, tc := range hostileRequests() {
		if len(tc.body) <= errs.MaxRequestBytes {
			f.Add([]byte(tc.body))
		}
	}

	srv, err := New(context.Background(), scan.SequentialOrder(vfs.Sources(testFS(f).List())), Config{MaxInFlight: 1, QueueDepth: 4})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range []struct {
			path string
			ok   any
		}{
			{"/v1/grep", new(GrepResponse)},
			{"/v1/measure", new(MeasureResponse)},
			{"/v1/verify", new(VerifyResponse)},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), ep.ok); err != nil {
					t.Fatalf("%s: 200 body does not decode as %T: %v\n%s", ep.path, ep.ok, err, rec.Body)
				}
				continue
			}
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("%s: 500 for body %q: %s", ep.path, body, rec.Body)
			}
			var eb errs.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Status != rec.Code || eb.Error == "" {
				t.Fatalf("%s: status %d, body %q is not its error envelope (decode: %v)", ep.path, rec.Code, rec.Body, err)
			}
		}
	})
}
