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

// statuses is the one table between the taxonomy and HTTP: HTTPStatus
// writes the first status listed for the first sentinel an error matches,
// and FromHTTPResponse reads each status back as its sentinel. Anything
// uncategorised is a 500 too, so a 500 reads back as ErrCorrupt only when
// its message ends in that sentinel's text.
var statuses = [...]struct {
	sentinel error
	status   int
}{
	{ErrInvalid, http.StatusBadRequest},
	{ErrNotFound, http.StatusNotFound},
	{ErrUnavailable, http.StatusServiceUnavailable}, // retry elsewhere or later
	{ErrUnavailable, http.StatusTooManyRequests},
	{ErrDeadline, http.StatusGatewayTimeout}, // the work ran out of wall clock
	{ErrCancelled, StatusClientClosedRequest},
	{ErrCorrupt, http.StatusInternalServerError},
}

// HTTPStatus maps an error onto the status a server should answer with,
// through statuses: 200 for nil, 500 for an error no sentinel matches.
// Raw context errors are run through Categorize first, so
// context.DeadlineExceeded lands on 504 and context.Canceled on 499.
func HTTPStatus(err error) int {
	err = Categorize(err)
	if err == nil {
		return http.StatusOK
	}
	for _, s := range statuses {
		if errors.Is(err, s.sentinel) {
			return s.status
		}
	}
	return http.StatusInternalServerError
}

// FromHTTPResponse maps a non-200 answer back onto the taxonomy — the
// inverse of WriteError, so an error crossing the wire comes back as
// itself: the same sentinel, named once, and the envelope's stage when the
// text starts with it. Only a 429 or 503 carries a Retry-After header
// (delta-seconds), which rides along as a RetryAfter hint so a retry loop
// does not hammer an overloaded or draining peer. The message is the
// envelope's error field, or the trimmed body when it is not an envelope;
// at most 64 KiB of the body is read, and it is not closed.
func FromHTTPResponse(resp *http.Response) error {
	msg, stage := "(no body)", ""
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil && len(b) > 0 {
		var eb ErrorBody
		if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
			msg = eb.Error
			if rest, ok := strings.CutPrefix(msg, eb.Stage+": "); ok && eb.Stage != "" {
				msg, stage = rest, eb.Stage
			}
		} else {
			msg = string(bytes.TrimSpace(b))
		}
	}
	code, hint := resp.StatusCode, time.Duration(0)
	err := fmt.Errorf("status %d: %s", code, msg)
	for _, s := range statuses {
		// rest is "", or ": " and what the message says before the sentinel.
		rest, named := strings.CutSuffix(": "+msg, ": "+s.sentinel.Error())
		if s.status != code || (s.sentinel == ErrCorrupt && !named) {
			continue
		}
		if s.sentinel == ErrUnavailable { // the text keeps which status it was
			rest = fmt.Sprintf(": status %d%s", code, rest)
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				hint = time.Duration(secs) * time.Second
			}
		}
		err = fmt.Errorf("%s%w", strings.TrimPrefix(rest+": ", ": "), s.sentinel)
		break
	}
	if stage != "" {
		err = Stage(stage, err)
	}
	return RetryAfter(err, hint)
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
// assigns its taxonomy category and, when err carries a RetryAfter hint,
// a Retry-After header of whole seconds, rounded up.
func WriteError(w http.ResponseWriter, err error) {
	status := HTTPStatus(err)
	if d, ok := RetryAfterHint(err); ok {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((d+time.Second-1)/time.Second), 10))
	}
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
