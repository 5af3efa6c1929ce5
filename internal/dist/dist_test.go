package dist

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/retry"
	"repro/internal/scan"
	"repro/internal/vfs"
)

// fastFailOpts are the options death-scenario tests run under: no
// in-place retries (so fault-hook call counts stay choreographed), an
// immediate health trip, and quick failing probes — the pre-gating
// permanent-death behaviour, reachable deliberately instead of by
// default.
func fastFailOpts() Options {
	return Options{
		Retry:  retry.Policy{MaxAttempts: 1},
		health: healthOptions{TripAfter: 1, ProbeInterval: time.Millisecond, MaxProbes: 1},
	}
}

// alwaysDown is the health hook of a worker that never comes back.
func alwaysDown(ctx context.Context) error {
	return errs.Unavailable("induced death")
}

// testPlan builds a small in-memory corpus and a plan chopped into many
// tasks (tiny TaskBytes), so even four workers have work to contend
// over.
func testPlan(t *testing.T, n int) *scan.Plan {
	t.Helper()
	fs := vfs.NewFS()
	for i := 0; i < n; i++ {
		text := fmt.Sprintf("File %d says the error count is %d. Unknownzz word! lines\nhere. The end? Yes!", i, i*7)
		if i%3 == 0 {
			text += " An ERROR in upper case, and errors besides; the theory holds."
		}
		if err := fs.Add(vfs.BytesFile(fmt.Sprintf("doc-%03d.txt", i), []byte(text))); err != nil {
			t.Fatal(err)
		}
	}
	p := scan.NewPlan(vfs.Sources(fs.List()), scan.PlanOptions{TaskBytes: 300})
	if len(p.Tasks) < 3 {
		t.Fatalf("want ≥3 tasks for contention, got %d", len(p.Tasks))
	}
	return p
}

func singleNode(t *testing.T, p *scan.Plan, spec Spec) *core.Measurement {
	t.Helper()
	m, err := core.MeasurePlanCtx(context.Background(), p, spec.MeasureOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameMeasurement asserts got is bit-identical to want in every output
// the measurement carries: manifest checksums (via the ordered
// fingerprint), text statistics, grep counts and complexity.
func sameMeasurement(t *testing.T, got, want *core.Measurement) {
	t.Helper()
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprint %016x, want %016x", got.Fingerprint(), want.Fingerprint())
	}
	if got.Files != want.Files || got.Bytes != want.Bytes {
		t.Errorf("files/bytes = %d/%d, want %d/%d", got.Files, got.Bytes, want.Files, want.Bytes)
	}
	if got.Stats != want.Stats || got.Lines != want.Lines {
		t.Errorf("stats = %+v lines %d, want %+v lines %d", got.Stats, got.Lines, want.Stats, want.Lines)
	}
	if !reflect.DeepEqual(got.FileStats, want.FileStats) {
		t.Error("per-file stats differ")
	}
	if !reflect.DeepEqual(got.Sums, want.Sums) {
		t.Error("ordered checksums differ")
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) || !reflect.DeepEqual(got.PatternTotals, want.PatternTotals) || got.Matches != want.Matches {
		t.Errorf("pattern totals %v (%d matches), want %v (%d)", got.PatternTotals, got.Matches, want.PatternTotals, want.Matches)
	}
	if !reflect.DeepEqual(got.PatternFiles, want.PatternFiles) {
		t.Error("per-file pattern counts differ")
	}
	if !reflect.DeepEqual(got.Complexity, want.Complexity) {
		t.Error("complexity maps differ")
	}
}

func localWorkers(t *testing.T, p *scan.Plan, spec Spec, n int) []Worker {
	t.Helper()
	ws := make([]Worker, n)
	for i := range ws {
		l, err := NewLocal(fmt.Sprintf("w%d", i), p, spec)
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = l
	}
	return ws
}

// TestMeasureBitIdentical pins the acceptance contract: the distributed
// measurement equals the single-node fused scan bit for bit at worker
// counts 1, 2 and 4, with and without complexity.
func TestMeasureBitIdentical(t *testing.T) {
	specs := map[string]Spec{
		"stats":           {Patterns: []string{"error", "the"}},
		"complexity-fold": {Patterns: []string{"error", "the"}, FoldCase: true, Complexity: true},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			p := testPlan(t, 24)
			want := singleNode(t, p, spec)
			for _, n := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers-%d", n), func(t *testing.T) {
					m, rep, err := Measure(context.Background(), p, spec, localWorkers(t, p, spec, n), Options{})
					if err != nil {
						t.Fatal(err)
					}
					sameMeasurement(t, m, want)
					won := 0
					for _, s := range rep.Workers {
						won += s.Won
					}
					if won != len(p.Tasks) {
						t.Errorf("workers won %d tasks, plan has %d", won, len(p.Tasks))
					}
					if rep.Degraded() || rep.Resumed != 0 {
						t.Errorf("clean run reported degraded=%v resumed=%d", rep.Degraded(), rep.Resumed)
					}
					// The report accounts for the run's time and bytes.
					var wonBytes, planBytes int64
					for _, s := range rep.Workers {
						wonBytes += s.Bytes
						// (A started attempt may never reach Scan: a steal
						// cancelled before its first try is busy for 0.)
						if (s.Won > 0 && s.Busy <= 0) || (s.Started == 0 && s.Busy != 0) || s.Busy > rep.Wall {
							t.Errorf("worker %q: busy %v over %d attempts (%d won) in a %v run", s.Name, s.Busy, s.Started, s.Won, rep.Wall)
						}
					}
					for _, task := range p.Tasks {
						planBytes += task.Bytes
					}
					if wonBytes != planBytes {
						t.Errorf("workers won %d bytes, plan has %d", wonBytes, planBytes)
					}
					if rep.MedianAttempt <= 0 || rep.MedianAttempt > rep.MaxAttempt || rep.MaxAttempt > rep.Wall {
						t.Errorf("attempts median %v max %v in a %v run", rep.MedianAttempt, rep.MaxAttempt, rep.Wall)
					}
				})
			}
		})
	}
}

// TestWorkerDiesMidRun kills one worker partway through — it completes
// its first task, then reports ErrUnavailable on its second, and its
// health probe confirms it is gone — and checks the survivor picks up
// the re-dispatched task and the output stays bit-identical. The
// survivor is gated on the death event, so the dying worker
// deterministically gets both attempts in first.
func TestWorkerDiesMidRun(t *testing.T) {
	spec := Spec{Patterns: []string{"error"}, Complexity: true}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)

	died := make(chan struct{})
	dying, err := NewLocal("dying", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	var mu sync.Mutex
	dying.fault = func(ctx context.Context, task int) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls >= 2 {
			if calls == 2 {
				close(died)
			}
			return errs.Unavailable("induced death")
		}
		return nil
	}
	dying.SetHealth(alwaysDown)
	survivorLocal, err := NewLocal("survivor", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	survivor := &gatedWorker{Local: survivorLocal, gate: died}

	m, rep, err := Measure(context.Background(), p, spec, []Worker{dying, survivor}, fastFailOpts())
	if err != nil {
		t.Fatal(err)
	}
	stats := rep.Workers
	sameMeasurement(t, m, want)
	if !stats[0].Dead {
		t.Errorf("dying worker not marked dead: %+v", stats[0])
	}
	if stats[0].Won != 1 {
		t.Errorf("dying worker won %d tasks, want 1", stats[0].Won)
	}
	if stats[0].Quarantined != 1 {
		t.Errorf("dying worker quarantined %d times, want 1", stats[0].Quarantined)
	}
	if stats[1].Dead {
		t.Errorf("survivor marked dead: %+v", stats[1])
	}
	if stats[1].Won != len(p.Tasks)-1 {
		t.Errorf("survivor won %d tasks, want %d (including the re-dispatched one)", stats[1].Won, len(p.Tasks)-1)
	}
}

// gatedWorker delays its first scan until gate closes.
type gatedWorker struct {
	*Local
	gate <-chan struct{}
}

func (w *gatedWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	<-w.gate
	return w.Local.Scan(ctx, req)
}

// TestAllWorkersDie checks the run fails with ErrUnavailable — not a
// hang — when every worker stops answering and stays down through its
// health probes.
func TestAllWorkersDie(t *testing.T) {
	spec := Spec{}
	p := testPlan(t, 12)
	ws := localWorkers(t, p, spec, 2)
	for _, w := range ws {
		w.(*Local).fault = func(ctx context.Context, task int) error {
			return errs.Unavailable("induced death")
		}
		w.(*Local).SetHealth(alwaysDown)
	}
	_, rep, err := Measure(context.Background(), p, spec, ws, fastFailOpts())
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	for i, s := range rep.Workers {
		if !s.Dead {
			t.Errorf("worker %d not marked dead", i)
		}
	}
}

// TestCancellationPropagates pins the determinism contract's
// cancellation clause: cancelling the run context surfaces ErrCancelled
// through the dist stage, while a worker is blocked mid-task.
func TestCancellationPropagates(t *testing.T) {
	spec := Spec{}
	p := testPlan(t, 12)
	ctx, cancel := context.WithCancel(context.Background())

	// The canceller cancels the run from inside its first task attempt;
	// the bystander is gated on that cancellation, so every task it ever
	// sees runs under a dead context — pinning that cancellation drains
	// the whole fleet, not just the worker that observed it first.
	canceller, err := NewLocal("canceller", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	canceller.fault = func(fctx context.Context, task int) error {
		once.Do(cancel)
		<-fctx.Done()
		return errs.FromContext(fctx)
	}
	bystanderLocal, err := NewLocal("bystander", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	bystander := &gatedWorker{Local: bystanderLocal, gate: ctx.Done()}

	_, _, err = Measure(ctx, p, spec, []Worker{canceller, bystander}, Options{})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if got := errs.StageOf(err); got != "dist" {
		t.Errorf("stage = %q, want dist", got)
	}
}

// TestPlanMismatchIsFatal checks the fingerprint preflight: a worker
// whose corpus view derived a different plan refuses with ErrInvalid and
// the run fails instead of folding wrong slices.
func TestPlanMismatchIsFatal(t *testing.T) {
	spec := Spec{}
	p := testPlan(t, 12)
	other := testPlan(t, 13) // one file more → different plan
	w, err := NewLocal("w0", other, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Measure(context.Background(), p, spec, []Worker{w}, Options{})
	if !errors.Is(err, errs.ErrInvalid) {
		t.Fatalf("err = %v, want ErrInvalid", err)
	}
}

// countingWorker wraps a Local for the stealing test's choreography: it
// waits for the slow worker to claim a task before doing anything, and
// closes release once it has completed enough tasks itself.
type countingWorker struct {
	*Local
	claimed <-chan struct{}
	after   int
	release chan struct{}
	done    int
	mu      sync.Mutex
}

func (w *countingWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	<-w.claimed // the slow worker holds its task before we race ahead
	resp, err := w.Local.Scan(ctx, req)
	if err == nil {
		w.mu.Lock()
		w.done++
		if w.done == w.after {
			close(w.release)
		}
		w.mu.Unlock()
	}
	return resp, err
}

// TestStealFromSlowWorker blocks the slow worker inside whichever task
// it claims first while the fast worker finishes everything else; the
// fast worker must then steal the held task so the run completes
// bit-identical. The straggler here ignores its context: the test holds
// it until the fast worker has completed every task (including the
// stolen one) and only then lets it go, which is what lets Run return —
// a worker that does not honour cancellation is waited for. What the
// test pins is the steal and the discarded late result;
// TestRunDoesNotWaitForStraggler pins that a straggler which does
// honour cancellation is not waited for.
func TestStealFromSlowWorker(t *testing.T) {
	spec := Spec{Patterns: []string{"the"}}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)

	release := make(chan struct{})
	claimed := make(chan struct{})
	slow, err := NewLocal("slow", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var claimOnce sync.Once
	slow.fault = func(ctx context.Context, task int) error {
		claimOnce.Do(func() { close(claimed) })
		<-release // held until the fast worker has done everything
		return nil
	}
	fastLocal, err := NewLocal("fast", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	fast := &countingWorker{Local: fastLocal, claimed: claimed, after: len(p.Tasks), release: release}

	m, rep, err := Measure(context.Background(), p, spec, []Worker{slow, fast}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stats := rep.Workers
	sameMeasurement(t, m, want)
	if stats[1].Stolen == 0 {
		t.Errorf("fast worker stole nothing: %+v", stats)
	}
	if stats[1].Won != len(p.Tasks) {
		t.Errorf("fast worker won %d of %d tasks", stats[1].Won, len(p.Tasks))
	}
}

// TestRunDoesNotWaitForStraggler is speculation winning: the slow
// worker blocks inside its first task until its context is cancelled and
// nothing in the test ever releases it, so the run can only end if the
// fast worker's steal cancels the copy it beat. The slow worker lost a
// race, it did not fail: the health gate must not hear about it.
func TestRunDoesNotWaitForStraggler(t *testing.T) {
	spec := Spec{Patterns: []string{"the"}}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)

	claimed := make(chan struct{})
	slow, err := NewLocal("slow", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var claimOnce sync.Once
	slow.fault = func(ctx context.Context, task int) error {
		claimOnce.Do(func() { close(claimed) })
		<-ctx.Done()
		return errs.FromContext(ctx)
	}
	fastLocal, err := NewLocal("fast", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	fast := &gatedWorker{Local: fastLocal, gate: claimed}

	// The deadline is the failure mode, not part of the choreography: a
	// run that waits for its straggler ends here with ErrDeadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m, rep, err := Measure(ctx, p, spec, []Worker{slow, fast}, Options{})
	if err != nil {
		t.Fatalf("run waited for the straggler: %v", err)
	}
	sameMeasurement(t, m, want)
	slowStats, fastStats := rep.Workers[0], rep.Workers[1]
	if fastStats.Stolen < 1 || fastStats.Won != len(p.Tasks) {
		t.Errorf("fast worker stole %d and won %d of %d tasks", fastStats.Stolen, fastStats.Won, len(p.Tasks))
	}
	if slowStats.Quarantined != 0 || slowStats.Dead {
		t.Errorf("losing a race counted against the slow worker's health: %+v", slowStats)
	}
}

// timedWorker records how long each of its Scan calls ran, losers
// included — the test's own view of whether a task was a straggler.
type timedWorker struct {
	*Local
	mu   sync.Mutex
	took []time.Duration
}

func (w *timedWorker) Scan(ctx context.Context, req *ScanRequest) (*ScanResponse, error) {
	t0 := time.Now()
	resp, err := w.Local.Scan(ctx, req)
	w.mu.Lock()
	w.took = append(w.took, time.Since(t0))
	w.mu.Unlock()
	return resp, err
}

// TestHealthyFleetDoesNotDuplicate pins the other half of the steal
// policy: two equal workers start every task exactly once. The moment
// that matters is the end of the run, when one worker is idle while the
// other still holds the last task — one such moment per round. Every
// task sleeps 5 ms, so a steal is only right if the machine hiccuped and
// some attempt really ran long; the test times the Scans itself, excuses
// a round where one ran 1.5× the median (the policy asks for 2×), and
// fails a steal it cannot excuse — which at a coordinator that steals
// the moment the queue is empty is every round.
func TestHealthyFleetDoesNotDuplicate(t *testing.T) {
	spec := Spec{}
	p := testPlan(t, 48)
	if len(p.Tasks) < 12 {
		t.Fatalf("want ≥12 tasks, got %d", len(p.Tasks))
	}
	const rounds = 8
	excused := 0
	for round := 0; round < rounds; round++ {
		var took []time.Duration
		ws := localWorkers(t, p, spec, 2)
		for i, w := range ws {
			w.(*Local).SetFault(func(ctx context.Context, task int) error {
				time.Sleep(5 * time.Millisecond)
				return nil
			})
			ws[i] = &timedWorker{Local: w.(*Local)}
		}
		_, rep, err := Measure(context.Background(), p, spec, ws, Options{})
		if err != nil {
			t.Fatal(err)
		}
		started, stolen := 0, 0
		for i, s := range rep.Workers {
			started += s.Started
			stolen += s.Stolen
			took = append(took, ws[i].(*timedWorker).took...)
		}
		if started == len(p.Tasks) && stolen == 0 {
			continue
		}
		// Two views of "ran long": the Scans as timed here, and the
		// coordinator's claim-to-answer attempts, which also see a worker
		// goroutine that was descheduled between claiming and scanning.
		slices.Sort(took)
		median, longest := took[len(took)/2], took[len(took)-1]
		if 2*longest < 3*median && 2*rep.MaxAttempt < 3*rep.MedianAttempt {
			t.Fatalf("round %d: %d attempts (%d stolen) for %d tasks, yet the longest Scan ran %v against a median of %v (attempts: %v against %v): %+v",
				round, started, stolen, len(p.Tasks), longest, median, rep.MaxAttempt, rep.MedianAttempt, rep.Workers)
		}
		excused++
	}
	if excused > rounds/2 {
		t.Skipf("machine too noisy to tell: a Scan overran 1.5× the median in %d of %d rounds", excused, rounds)
	}
}
