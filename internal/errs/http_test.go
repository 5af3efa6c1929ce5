package errs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHTTPStatus pins the sentinel→status table, including errors that
// arrive wrapped (StageError, fmt.Errorf chains) or as raw context errors
// that HTTPStatus must categorise itself.
func TestHTTPStatus(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 200},
		{"invalid", ErrInvalid, 400},
		{"invalid-built", Invalid("workers %d out of range", -1), 400},
		{"invalid-staged", Stage("grep", Invalid("no patterns")), 400},
		{"not-found", ErrNotFound, 404},
		{"not-found-built", NotFound("member %q", "m-000042"), 404},
		{"unavailable", ErrUnavailable, 503},
		{"unavailable-built", Unavailable("worker %q gone", "w1"), 503},
		{"unavailable-staged", Stage("dist", Unavailable("no live workers")), 503},
		{"deadline", ErrDeadline, 504},
		{"deadline-staged", StageFile("measure", "f01", fmt.Errorf("scan: %w", ErrDeadline)), 504},
		{"deadline-raw-context", context.DeadlineExceeded, 504},
		{"cancelled", ErrCancelled, 499},
		{"cancelled-staged", Stage("verify", fmt.Errorf("aborted: %w", ErrCancelled)), 499},
		{"cancelled-raw-context", context.Canceled, 499},
		{"corrupt", ErrCorrupt, 500},
		{"corrupt-built", Corrupt("checksum mismatch on %q", "f02"), 500},
		{"unknown", errors.New("disk on fire"), 500},
		{"unknown-staged", Stage("export", errors.New("disk on fire")), 500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := HTTPStatus(tc.err); got != tc.want {
				t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.want)
			}
		})
	}
}

// TestHTTPStatusCategorizedContext checks the categorised context errors a
// live request produces (ctx.Err() run through FromContext) land on the
// same statuses as the bare sentinels.
func TestHTTPStatusCategorizedContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := HTTPStatus(FromContext(ctx)); got != 499 {
		t.Errorf("cancelled context = %d, want 499", got)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer dcancel()
	<-dctx.Done()
	if got := HTTPStatus(FromContext(dctx)); got != 504 {
		t.Errorf("expired context = %d, want 504", got)
	}
}

// TestHTTPRoundTrip pins the table to its inverse: every sentinel, bare
// and wrapped in Stage, StageFile and RetryAfter, written by WriteError
// and read back by FromHTTPResponse comes back as the same sentinel and
// no other, named once, with the same stage, the same text (a 503 adds
// its status) and — on the one status that carries a hint — the same
// RetryAfter hint.
func TestHTTPRoundTrip(t *testing.T) {
	sentinels := []error{ErrInvalid, ErrNotFound, ErrUnavailable, ErrDeadline, ErrCancelled, ErrCorrupt}
	for _, sentinel := range sentinels {
		for _, tc := range []struct {
			name string
			sent error
		}{
			{"bare", sentinel},
			{"built", fmt.Errorf("member 7: %w", sentinel)},
			{"staged", Stage("scan", sentinel)},
			{"staged-file", StageFile("scan", "f01", fmt.Errorf("member 7: %w", sentinel))},
			{"retry-after", RetryAfter(StageFile("dist", "task 3", sentinel), 2*time.Second)},
		} {
			t.Run(sentinel.Error()+"/"+tc.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				WriteError(rec, tc.sent)
				resp := rec.Result()
				if resp.StatusCode != HTTPStatus(sentinel) {
					t.Fatalf("wrote status %d, table says %d", resp.StatusCode, HTTPStatus(sentinel))
				}
				var eb ErrorBody
				if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb != (ErrorBody{Error: tc.sent.Error(), Stage: StageOf(tc.sent), Status: resp.StatusCode}) {
					t.Errorf("envelope %+v (decode: %v)", eb, err)
				}
				got := FromHTTPResponse(resp)
				for _, s := range sentinels {
					if errors.Is(got, s) != (s == sentinel) {
						t.Errorf("%q: errors.Is(%v) = %v", got, s, s != sentinel)
					}
				}
				if n := strings.Count(got.Error(), sentinel.Error()); n != 1 {
					t.Errorf("%q names %q %d times, want once", got, sentinel, n)
				}
				if text := strings.Replace(got.Error(), "status 503: ", "", 1); text != tc.sent.Error() {
					t.Errorf("came back as %q, sent %q", got, tc.sent)
				}
				if StageOf(got) != StageOf(tc.sent) {
					t.Errorf("stage %q, sent %q", StageOf(got), StageOf(tc.sent))
				}
				wantHint, wantOK := RetryAfterHint(tc.sent)
				if sentinel != ErrUnavailable {
					wantHint, wantOK = 0, false // only 429 and 503 carry Retry-After
				}
				if d, ok := RetryAfterHint(got); d != wantHint || ok != wantOK {
					t.Errorf("hint %v, %v; want %v, %v", d, ok, wantHint, wantOK)
				}
				if IsRetryable(got) != IsRetryable(tc.sent) {
					t.Errorf("retryable %v on the far side", IsRetryable(got))
				}
			})
		}
	}
}

// TestFromHTTPResponse covers what a peer that is not one of ours can
// send: the hint on 429 and 503 (and only a sane one), a plain-text or
// empty body, and a 500 that is nobody's sentinel.
func TestFromHTTPResponse(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int
		retryAfter string
		body       string
		want       error // nil: uncategorised
		hint       time.Duration
		text       string
	}{
		{name: "503-hint", status: 503, retryAfter: "3", body: `{"error":"draining","status":503}`, want: ErrUnavailable, hint: 3 * time.Second, text: "status 503: draining"},
		{name: "429-hint", status: 429, retryAfter: "1", body: `{"error":"queue full","status":429}`, want: ErrUnavailable, hint: time.Second, text: "status 429: queue full"},
		{name: "503-no-hint", status: 503, body: "try later\n", want: ErrUnavailable, text: "status 503: try later"},
		{name: "503-negative-hint", status: 503, retryAfter: "-4", want: ErrUnavailable, text: "(no body)"},
		{name: "503-date-hint", status: 503, retryAfter: "Wed, 21 Oct 2015 07:28:00 GMT", want: ErrUnavailable},
		{name: "400-hint-ignored", status: 400, retryAfter: "9", body: `{"error":"bad plan","status":400}`, want: ErrInvalid, text: "bad plan"},
		{name: "500-plain", status: 500, body: `{"error":"scan: disk on fire","status":500}`, text: "status 500: scan: disk on fire"},
		{name: "500-mentions-corrupt", status: 500, body: `{"error":"corrupt data: not at the end","status":500}`},
		{name: "502-html", status: 502, body: "<html>bad gateway</html>", text: "status 502: <html>bad gateway</html>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := &http.Response{StatusCode: tc.status, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(tc.body))}
			if tc.retryAfter != "" {
				resp.Header.Set("Retry-After", tc.retryAfter)
			}
			err := FromHTTPResponse(resp)
			if err == nil || !strings.Contains(err.Error(), tc.text) {
				t.Fatalf("err = %v, want text %q", err, tc.text)
			}
			for _, s := range []error{ErrInvalid, ErrNotFound, ErrUnavailable, ErrDeadline, ErrCancelled, ErrCorrupt} {
				if errors.Is(err, s) != (s == tc.want) {
					t.Errorf("errors.Is(%v, %v) = %v", err, s, !(s == tc.want))
				}
			}
			if d, ok := RetryAfterHint(err); d != tc.hint || ok != (tc.hint > 0) {
				t.Errorf("hint = %v, %v; want %v", d, ok, tc.hint)
			}
		})
	}
}

// TestDecodeJSON pins the one request decoder: empty is fine, one value
// is fine, anything after it or past the cap is ErrInvalid.
func TestDecodeJSON(t *testing.T) {
	type req struct {
		N int `json:"n"`
	}
	for _, tc := range []struct {
		name, body string
		ok         bool
		n          int
	}{
		{"empty", "", true, 0},
		{"whitespace", " \n", true, 0},
		{"value", `{"n":3}`, true, 3},
		{"value-newline", "{\"n\":3}\n", true, 3},
		{"at-cap", `{"n":3}` + strings.Repeat(" ", MaxRequestBytes-7), true, 3},
		{"past-cap", `{"n":3}` + strings.Repeat(" ", MaxRequestBytes-6), false, 0},
		{"huge-value", `{"n":3,"x":"` + strings.Repeat("a", MaxRequestBytes) + `"}`, false, 0},
		{"two-values", `{"n":3}{"n":4}`, false, 0},
		{"garbage-after", `{"n":3}]`, false, 0},
		{"truncated", `{"n":`, false, 0},
		{"wrong-type", `{"n":"three"}`, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest("POST", "/", strings.NewReader(tc.body))
			var v req
			err := DecodeJSON(httptest.NewRecorder(), r, &v)
			if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrInvalid)) {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if tc.ok && v.N != tc.n {
				t.Errorf("n = %d, want %d", v.N, tc.n)
			}
		})
	}
}
