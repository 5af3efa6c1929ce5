package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestQuantileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := quantile(v, 0.95); math.Abs(got-9.55) > 1e-9 {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-sample quantile = %v, want 7", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; at the fixed sample counts a run reaches that is p50 of 20,
// p90 of 100, p99 of 1000.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{20, 25, 100, 1000} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		value, pct := tail(v)
		beyond := 0
		for _, x := range v {
			if x > value {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail value, want 10", n, beyond)
		}
		if want := 100 * float64(n-10) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	// Too few samples for any percentile: the maximum, ranked honestly.
	if value, pct := tail([]float64{3, 9, 27}); value != 27 || math.Abs(pct-100*2.0/3) > 1e-9 {
		t.Errorf("tail of 3 samples = %v at p%v, want 27 at p66.7", value, pct)
	}
}

// spread must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance check uses: for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	q1, med, q3, rel := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 || rel != 1 {
		t.Errorf("spread(1..10) = %v %v %v %v, want 2.75 5.5 8.25 1", q1, med, q3, rel)
	}
	q1, _, q3, _ = spread([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("spread(1..5) quartiles = %v %v, want 1.5 4.5", q1, q3)
	}
}

// A span's self time excludes the union of its children, which may
// overlap each other (two workers scanning at once).
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := newTracer()
	at := func(msec int) time.Time { return tr.epoch.Add(time.Duration(msec) * time.Millisecond) }
	op := tr.add("op", at(0), at(100), -1, 0)
	tr.add("a", at(10), at(50), op, 0)
	tr.add("b", at(30), at(70), op, 0) // overlaps a by 20 ms
	leaf := tr.add("c", at(80), at(90), op, 0)
	self := tr.selfTimes()
	if got := ms(self[op]); got != 30 { // 100 − (10..70) − (80..90)
		t.Errorf("op self = %v ms, want 30", got)
	}
	if got := ms(self[leaf]); got != 10 {
		t.Errorf("leaf self = %v ms, want 10", got)
	}
	var off *tracer
	if id := off.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	off.end(-1) // must not panic
}

// One seed gives one schedule and request mix; another seed another.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b := schedule(7, 80, 2000), schedule(7, 80, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 80, 2000)) {
		t.Fatal("different seeds produced the same schedule")
	}
	var kinds [len(kindNames)]int
	for i, r := range a {
		kinds[r.kind]++
		if i > 0 && r.due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	for k, share := range kindMix {
		if got := float64(kinds[k]) / float64(len(a)); math.Abs(got-share) > 0.04 {
			t.Errorf("%s share = %.3f, want ≈%.2f", kindNames[k], got, share)
		}
	}
	// 2000 arrivals at 80/s span about 25 s.
	if last := a[len(a)-1].due.Seconds(); last < 22 || last > 28 {
		t.Errorf("last arrival due at %.1f s, want ≈25", last)
	}
	for _, r := range schedule(7, 0, 10) {
		if r.due != 0 {
			t.Fatal("closed-loop schedule has a due time")
		}
	}
}

// In an open loop a request's latency runs from its due time: when all
// connections are busy, the wait for one is charged to the request.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	sched := make([]request, 2*connections) // all due at once: the second wave must wait
	send := func(reqKind) (time.Time, error) {
		time.Sleep(service)
		return time.Now(), nil
	}
	samples, _ := play(sched, true, 0, nil, send)
	if len(samples) != len(sched) {
		t.Fatalf("sent %d of %d", len(samples), len(sched))
	}
	for i, s := range samples[connections:] {
		if s.lat < 2*service-5*time.Millisecond {
			t.Errorf("waiting request %d: latency %v, want ≥ %v (wait + service)", i, s.lat, 2*service)
		}
		if s.lag < service-5*time.Millisecond {
			t.Errorf("waiting request %d: generator lag %v, want ≈ %v", i, s.lag, service)
		}
	}
	// The same schedule in a closed loop is timed from the send.
	samples, _ = play(sched, false, time.Second, nil, send)
	for i, s := range samples {
		if s.lat > service+30*time.Millisecond || s.lag != 0 {
			t.Errorf("closed-loop request %d: latency %v lag %v, want ≈ %v and 0", i, s.lat, s.lag, service)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.10
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"slower than bound", lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{"faster", lower, steady, []float64{50, 51, 49, 50, 50}, "ok"},
		{"throughput down", higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{"throughput up", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"spread wider than bound", lower, []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 110}, []float64{40, 50, 60, 45, 55}, "ok"},
	} {
		if got, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
