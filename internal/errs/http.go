package errs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The repository's HTTP edge for errors and JSON bodies: the sentinel →
// status table, its inverse, the error envelope and its writer, and the
// one bounded request decoder. Both daemons, the coordinator's client and
// the fault injector's synthesized responses go through it.

// StatusClientClosedRequest is nginx's non-standard 499: the client went
// away (or cancelled) before the response was written. It is the HTTP
// spelling of ErrCancelled.
const StatusClientClosedRequest = 499

// MaxRequestBytes bounds a JSON request body on either daemon. A real
// scan request is ~150 bytes plus its patterns.
const MaxRequestBytes = 1 << 20

// HTTPStatus maps an error onto the HTTP status a server should answer
// with, using the taxonomy's sentinels. Raw context errors are run through
// Categorize first, so context.DeadlineExceeded lands on 504 and
// context.Canceled on 499 without the caller wrapping them. The mapping is
// the single shared table — CLI exit codes and server status codes both
// derive from the same sentinels:
//
//	nil            → 200
//	ErrInvalid     → 400 (bad request: caller-supplied parameter)
//	ErrNotFound    → 404
//	ErrCancelled   → 499 (client closed request)
//	ErrUnavailable → 503 (service unavailable: retry elsewhere or later)
//	ErrDeadline    → 504 (gateway timeout: the work ran out of wall clock)
//	ErrCorrupt     → 500
//	anything else  → 500
func HTTPStatus(err error) int {
	err = Categorize(err)
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrCancelled):
		return StatusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

// FromHTTPResponse maps a non-200 answer back onto the taxonomy — the
// inverse of HTTPStatus, so a sentinel crossing the wire comes back as
// itself: 503 re-dispatches, 400 is a protocol bug, and a 500-class
// failure stays fatal exactly as it would be in-process. 429 and 503 are
// both "come back later" (ErrUnavailable), and the Retry-After header
// (delta-seconds) rides along as a RetryAfter hint so a retry loop does
// not hammer an overloaded or draining peer. 500 is shared by ErrCorrupt
// and everything uncategorised: the envelope's error text is the rendered
// chain, which the taxonomy's builders end with their sentinel, so a 500
// ending in ErrCorrupt's text comes back as ErrCorrupt. The message is
// the envelope's error field, or the trimmed body when it is not an
// envelope; at most 64 KiB of the body is read, and it is not closed.
func FromHTTPResponse(resp *http.Response) error {
	msg := "(no body)"
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil && len(b) > 0 {
		var eb ErrorBody
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		} else {
			msg = string(bytes.TrimSpace(b))
		}
	}
	code := resp.StatusCode
	switch code {
	case http.StatusBadRequest:
		return Invalid("%s", msg)
	case http.StatusNotFound:
		return NotFound("%s", msg)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var after time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			after = time.Duration(secs) * time.Second
		}
		return RetryAfter(Unavailable("status %d: %s", code, msg), after)
	case StatusClientClosedRequest:
		return fmt.Errorf("%s: %w", msg, ErrCancelled)
	case http.StatusGatewayTimeout:
		return fmt.Errorf("%s: %w", msg, ErrDeadline)
	}
	if tail := ": " + ErrCorrupt.Error(); code == http.StatusInternalServerError && strings.HasSuffix(msg, tail) {
		return Corrupt("%s", strings.TrimSuffix(msg, tail))
	}
	return fmt.Errorf("status %d: %s", code, msg)
}

// ErrorBody is the JSON error envelope every service in the repository
// answers failures with — the resident corpus server and the distributed
// scan workers share it, so one client-side decoder reads both.
type ErrorBody struct {
	Error  string `json:"error"`
	Stage  string `json:"stage,omitempty"`
	Status int    `json:"status"`
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is the only victim of a failed write
}

// WriteError writes err as an ErrorBody, with the status HTTPStatus
// assigns its taxonomy category.
func WriteError(w http.ResponseWriter, err error) {
	status := HTTPStatus(err)
	WriteJSON(w, status, ErrorBody{Error: err.Error(), Stage: StageOf(err), Status: status})
}

// DecodeJSON decodes a request's JSON body into v: at most
// MaxRequestBytes of it, and nothing but whitespace after the one value.
// An empty body leaves v untouched (every request field in the
// repository is optional). Anything else is ErrInvalid — a 400 through
// WriteError.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err := dec.Decode(v); err == io.EOF {
		return nil
	} else if err != nil {
		return Invalid("bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Invalid("bad request body: data after the JSON value")
	}
	return nil
}
