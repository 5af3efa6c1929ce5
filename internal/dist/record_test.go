package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/errs"
	"repro/internal/scan"
)

// TestScanAnswerIsOneRecord pins the wire form of a successful answer:
// application/octet-stream, an explicit Content-Length, and a body that
// is exactly one record whose states are byte for byte what the
// in-process worker snapshots — the frame wraps them, it does not
// re-encode them.
func TestScanAnswerIsOneRecord(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 12)
	ts := httptest.NewServer(NewWorkerServer("w", p).Handler())
	defer ts.Close()
	local, err := NewLocal("ref", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	req := &ScanRequest{PlanFP: p.Fingerprint(), Spec: spec, Task: 1}
	want, err := local.Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/octet-stream" {
		t.Fatalf("status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Errorf("Content-Length %q for a %d-byte body", got, len(body))
	}
	task, states, n, err := parseRecord(body)
	if err != nil || n != len(body) {
		t.Fatalf("body is not exactly one record: %d of %d bytes, err %v", n, len(body), err)
	}
	if task != want.Task || !reflect.DeepEqual(states, want.States) {
		t.Errorf("record carries task %d and states that differ from the local snapshot of task %d", task, want.Task)
	}

	got, err := NewHTTPWorker("w", ts.URL).Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// The answers are compared field by field: the HTTP one also carries
	// the hook that hands its receive buffer back, which Local's does not.
	if got.Task != want.Task || !reflect.DeepEqual(got.States, want.States) {
		t.Error("HTTPWorker.Scan differs from Local.Scan on the same task")
	}
	if got.release == nil {
		t.Error("HTTPWorker.Scan's answer has no release hook for its receive buffer")
	} else {
		got.release()
	}
}

// TestPooledAnswersAreWhole pins the worker's pooled answer buffer: two
// consecutive answers from one daemon, for tasks of different sizes, are
// each exactly the record appendRecord frames from their own states, so
// nothing of the first answer shows in the second.
func TestPooledAnswersAreWhole(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 24)
	ts := httptest.NewServer(NewWorkerServer("w", p).Handler())
	defer ts.Close()
	local, err := NewLocal("ref", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The larger task first, so a reused buffer starts longer than the
	// second record.
	first, second := 0, len(p.Tasks)-1
	if p.Tasks[first].Hi-p.Tasks[first].Lo < p.Tasks[second].Hi-p.Tasks[second].Lo {
		first, second = second, first
	}
	for _, task := range []int{first, second} {
		req := &ScanRequest{PlanFP: p.Fingerprint(), Spec: spec, Task: task}
		want, err := local.Scan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(mustJSON(t, req)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, appendRecord(nil, want.Task, want.States)) {
			t.Errorf("task %d: the answer is not the record of its own states (%d bytes)", task, len(body))
		}
	}
}

// TestRecordFramedInPlace holds the worker's one encode path to the
// record of independently snapshotted states: each kernel's state
// encoded straight into its place, behind whatever the buffer already
// held, is byte for byte appendRecord over SnapshotKernel of each kernel
// — with or without room for it in the buffer.
func TestRecordFramedInPlace(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 12)
	local, err := NewLocal("ref", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	for task := range p.Tasks {
		req := &ScanRequest{PlanFP: p.Fingerprint(), Spec: spec, Task: task}
		kernels, err := local.scanTask(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		states := make([][]byte, len(kernels))
		for i, k := range kernels {
			if states[i], err = scan.SnapshotKernel(k); err != nil {
				t.Fatal(err)
			}
		}
		prefix := []byte("earlier answer")
		want := appendRecord(bytes.Clone(prefix), task, states)
		for _, room := range []int{0, len(want)} {
			got, err := local.appendScan(context.Background(), req, append(make([]byte, 0, len(prefix)+room), prefix...))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("task %d: the record framed in place behind a prefix with %d bytes of room differs from appendRecord of its snapshots", task, room)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mangleFirst is a RoundTripper that rewrites the first successful
// /v1/scan answer it sees: mangle maps the genuine record onto the body
// to deliver and the Content-Length to declare for it. A declared length
// beyond the body ends the way a dropped connection does, with
// io.ErrUnexpectedEOF. Later answers pass through untouched, so a
// re-dispatch succeeds.
type mangleFirst struct {
	mangle func(rec []byte) (body []byte, declared int64)
	mu     sync.Mutex
	done   bool
}

func (m *mangleFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || req.URL.Path != "/v1/scan" {
		return resp, err
	}
	m.mu.Lock()
	first := !m.done
	m.done = true
	m.mu.Unlock()
	if !first {
		return resp, nil
	}
	rec, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body, declared := m.mangle(rec)
	var r io.Reader = bytes.NewReader(body)
	if declared > int64(len(body)) {
		r = io.MultiReader(r, iotest.ErrReader(io.ErrUnexpectedEOF))
	}
	resp.Body, resp.ContentLength = io.NopCloser(r), declared
	return resp, nil
}

// TestHostileFrames rewrites a worker's answer on the wire every way a
// frame can be wrong. Each one must come back ErrUnavailable — a
// re-dispatch, never a Restore of the damaged bytes — and a run that
// meets it must re-dispatch and still end bit-identical.
func TestHostileFrames(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 12)
	want := singleNode(t, p, spec)
	ts := httptest.NewServer(NewWorkerServer("w", p).Handler())
	defer ts.Close()

	whole := func(body []byte) ([]byte, int64) { return body, int64(len(body)) }
	flip := func(at func(rec []byte) int) func([]byte) ([]byte, int64) {
		return func(rec []byte) ([]byte, int64) {
			rec[at(rec)] ^= 0x01
			return whole(rec)
		}
	}
	cases := map[string]func(rec []byte) ([]byte, int64){
		"flip-state":   flip(func([]byte) int { return 16 + 2 }),
		"flip-length":  flip(func([]byte) int { return 12 }),
		"flip-count":   flip(func([]byte) int { return 8 }),
		"flip-task":    flip(func([]byte) int { return 4 }),
		"flip-magic":   flip(func([]byte) int { return 0 }),
		"flip-trailer": flip(func(rec []byte) int { return len(rec) - 1 }),
		"other-task-intact": func(rec []byte) ([]byte, int64) {
			task, states, _, _ := parseRecord(rec)
			return whole(appendRecord(nil, task+1, states))
		},
		"trailing-garbage": func(rec []byte) ([]byte, int64) { return whole(append(rec, "JR"...)) },
		"two-records":      func(rec []byte) ([]byte, int64) { return whole(append(rec, rec...)) },
		"count-max-in-20-bytes": func(rec []byte) ([]byte, int64) {
			body := append([]byte(nil), rec[:20]...)
			binary.LittleEndian.PutUint32(body[8:], 1<<32-1)
			return whole(body)
		},
		"length-max": func(rec []byte) ([]byte, int64) {
			binary.LittleEndian.PutUint32(rec[12:], 1<<32-1)
			return whole(rec)
		},
		"content-length-beyond-body": func(rec []byte) ([]byte, int64) { return rec, int64(len(rec)) + 7 },
		"content-length-1TB":         func(rec []byte) ([]byte, int64) { return rec[:10], 1 << 40 },
	}
	// A body cut at every field boundary (and one byte short of whole).
	probe, err := NewHTTPWorker("w", ts.URL).Scan(context.Background(), &ScanRequest{PlanFP: p.Fingerprint(), Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	// Named by field, not offset, so the names outlive the state layout.
	cuts := map[string]int{"nothing": 0, "magic": 4, "task": 8, "count": 12}
	at := 12
	for i, s := range probe.States {
		cuts[fmt.Sprintf("length-%d", i)] = at + 4
		at += 4 + len(s)
		cuts[fmt.Sprintf("state-%d", i)] = at
	}
	cuts["most-of-trailer"] = at + 3
	if size := len(appendRecord(nil, 0, probe.States)); at+4 != size || len(probe.States[0]) < 3 {
		t.Fatalf("test arithmetic off: trailer at %d of a %d-byte record, first state %d bytes", at, size, len(probe.States[0]))
	}
	for field, cut := range cuts {
		cases["cut-after-"+field] = func(rec []byte) ([]byte, int64) { return whole(rec[:cut]) }
	}

	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			hw := NewHTTPWorkerClient("w", ts.URL, &http.Client{Transport: &mangleFirst{mangle: mangle}})
			req := &ScanRequest{PlanFP: p.Fingerprint(), Spec: spec}
			if _, err := hw.Scan(context.Background(), req); !errors.Is(err, errs.ErrUnavailable) {
				t.Fatalf("err = %v, want ErrUnavailable", err)
			}
			if _, err := hw.Scan(context.Background(), req); err != nil {
				t.Fatalf("the same worker's next, untouched answer: %v", err)
			}

			hw = NewHTTPWorkerClient("w", ts.URL, &http.Client{Transport: &mangleFirst{mangle: mangle}})
			m, rep, err := Measure(context.Background(), p, spec, []Worker{hw}, fastRetryOpts())
			if err != nil {
				t.Fatal(err)
			}
			sameMeasurement(t, m, want)
			if rep.Retries != 1 {
				t.Errorf("Retries = %d, want 1 (the damaged answer re-dispatched)", rep.Retries)
			}
		})
	}
}

// TestDeclaredLengthReservesOneChunk pins the allocation bound: an
// answer that declares a terabyte and delivers ten bytes costs the
// coordinator the first chunk, not the declaration.
func TestDeclaredLengthReservesOneChunk(t *testing.T) {
	p := testPlan(t, 12)
	ts := httptest.NewServer(NewWorkerServer("w", p).Handler())
	defer ts.Close()
	hw := NewHTTPWorkerClient("w", ts.URL, &http.Client{Transport: &mangleFirst{
		mangle: func(rec []byte) ([]byte, int64) { return rec[:10], 1 << 40 },
	}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := hw.Scan(context.Background(), &ScanRequest{PlanFP: p.Fingerprint()})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// Generous on purpose — the round trip itself allocates (request, the
	// loopback server's scan of one tiny task), and under the race
	// detector bytes.Buffer's growth pays for its reservation twice — but
	// a small multiple of the chunk, six orders of magnitude under the
	// declaration.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*firstChunk {
		t.Errorf("a 10-byte answer declaring 1 TB allocated %d bytes, want a small multiple of firstChunk (%d)", got, firstChunk)
	}
}

// FuzzRecord drives both readers of the record codec with arbitrary
// bytes: parseRecord directly, and the journal's replay walk over a
// header plus the same bytes. Neither may panic or reserve more slots
// than the input's bytes can pay for (a state costs at least its 4-byte
// length field), and whatever parses re-encodes to the bytes it was
// parsed from. A mutated frame almost never keeps a valid CRC, so resum
// lets the fuzzer ask for the trailer to be recomputed over its input —
// which is how mutated counts and lengths get past the checksum to the
// structural checks.
func FuzzRecord(f *testing.F) {
	rec := appendRecord(nil, 3, [][]byte{[]byte("alpha"), nil, {0x00, 0xff}})
	for _, seed := range [][]byte{
		rec,
		appendRecord(nil, 0, nil),
		append(append([]byte(nil), rec...), rec[:len(rec)-3]...),                          // whole + torn
		append(append(appendRecord(nil, 1, [][]byte{{1}}), rec...), rec...),               // duplicate task
		[]byte("JREC\x00\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00"),    // hostile count
		[]byte("JREC\x00\x00\x00\x00\x01\x00\x00\x00\xff\xff\xff\xff\x00\x00\x00\x00abc"), // hostile length
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	hdr, err := journalHeader(7, Spec{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte, resum bool) {
		if at := len(raw) - 4; resum && at >= len(recordMagic) {
			binary.LittleEndian.PutUint32(raw[at:], crc32.Checksum(raw[len(recordMagic):at], castagnoli))
		}
		task, states, n, err := parseRecord(raw)
		if cap(states)*4 > len(raw) {
			t.Fatalf("reserved %d state slots for %d input bytes", cap(states), len(raw))
		}
		switch {
		case err == nil:
			if got := appendRecord(nil, task, states); !bytes.Equal(got, raw[:n]) {
				t.Fatalf("parsed record re-encodes to %x, was %x", got, raw[:n])
			}
		case n != 0 && err != errRecordSum, n > len(raw):
			t.Fatalf("err %v with span %d of %d bytes", err, n, len(raw))
		}

		file := append(append([]byte(nil), hdr...), raw...)
		resumed, end, err := parseJournalRecords("fuzz", file, len(hdr))
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupt) || resumed != nil {
				t.Fatalf("journal replay failed with %v (states %v), want ErrCorrupt and nothing", err, resumed)
			}
			return
		}
		// What replay accepted is a run of whole records ending at end —
		// the offset OpenJournal truncates to — and each task maps to the
		// states of its first record.
		first := map[int][][]byte{}
		slots := 0
		for off := len(hdr); off < end; {
			task, states, n, err := parseRecord(file[off:end])
			if err != nil {
				t.Fatalf("replay accepted bytes up to %d, but offset %d does not parse: %v", end, off, err)
			}
			if got := appendRecord(nil, task, states); !bytes.Equal(got, file[off:off+n]) {
				t.Fatalf("journaled record at %d does not re-encode to itself", off)
			}
			if _, dup := first[task]; !dup {
				first[task] = states
			}
			slots += cap(states)
			off += n
		}
		if end < len(hdr) || end > len(file) || slots*4 > len(raw) || !reflect.DeepEqual(resumed, first) {
			t.Fatalf("replay of %d bytes ended at %d with %d tasks, walk found %d", len(file), end, len(resumed), len(first))
		}
	})
}
