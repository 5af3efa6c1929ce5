package dist

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/retry"
	"repro/internal/scan"
)

// fastRetryOpts keeps the in-place retry loop but with millisecond
// backoff, so recovery tests run fast.
func fastRetryOpts() Options {
	return Options{Retry: retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}}
}

// TestRetryRecoversTransientFaults gives a single worker a fault hook
// that fails the first attempt of every task with ErrUnavailable. The
// retry layer must absorb each failure in place — same worker, backoff,
// no quarantine, no death — and the run must stay bit-identical.
func TestRetryRecoversTransientFaults(t *testing.T) {
	spec := Spec{Patterns: []string{"error"}}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)

	w, err := NewLocal("flaky", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[int]int{}
	w.SetFault(func(ctx context.Context, task int) error {
		mu.Lock()
		defer mu.Unlock()
		seen[task]++
		if seen[task] == 1 {
			return errs.Unavailable("transient fault on task %d", task)
		}
		return nil
	})

	m, rep, err := Measure(context.Background(), p, spec, []Worker{w}, fastRetryOpts())
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, m, want)
	if rep.Retries != len(p.Tasks) {
		t.Errorf("Retries = %d, want %d (one per task)", rep.Retries, len(p.Tasks))
	}
	s := rep.Workers[0]
	if s.Won != len(p.Tasks) || s.Quarantined != 0 || s.Dead {
		t.Errorf("worker stats = %+v, want all tasks won with no quarantine or death", s)
	}
}

// TestRetryBudgetExhaustionFailsLoudly pins the budget backstop: a
// systemic fault that would retry forever instead burns the shared
// budget and fails the run with the retryable error, not a hang.
func TestRetryBudgetExhaustionFailsLoudly(t *testing.T) {
	spec := Spec{}
	p := testPlan(t, 12)
	w, err := NewLocal("doomed", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFault(func(ctx context.Context, task int) error {
		return errs.Unavailable("systemic fault")
	})
	w.SetHealth(alwaysDown)

	opts := fastRetryOpts()
	opts.retryBudget = 2
	opts.health = healthOptions{TripAfter: 1, ProbeInterval: time.Millisecond, MaxProbes: 1}
	_, rep, err := Measure(context.Background(), p, spec, []Worker{w}, opts)
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if rep.Retries > 2 {
		t.Errorf("Retries = %d, want <= budget of 2", rep.Retries)
	}
}

// TestQuarantineAndReadmission trips a worker's health gate with a
// burst of failures, then lets its probe succeed: the worker must be
// quarantined (not killed), re-admitted, and finish the run. This is
// the scenario the old permanent-death model got wrong.
func TestQuarantineAndReadmission(t *testing.T) {
	spec := Spec{Patterns: []string{"the"}}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)

	w, err := NewLocal("wobbly", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	w.SetFault(func(ctx context.Context, task int) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return errs.Unavailable("brownout")
		}
		return nil
	})
	// Health hook unset: Probe answers healthy, so quarantine ends in
	// re-admission at the first probe tick.

	opts := Options{
		Retry:  retry.Policy{MaxAttempts: 1},
		health: healthOptions{TripAfter: 1, ProbeInterval: time.Millisecond, MaxProbes: 3},
	}
	m, rep, err := Measure(context.Background(), p, spec, []Worker{w}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, m, want)
	s := rep.Workers[0]
	if s.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", s.Quarantined)
	}
	if s.Dead {
		t.Errorf("worker marked dead despite healthy probe: %+v", s)
	}
	if s.Won != len(p.Tasks) {
		t.Errorf("worker won %d of %d tasks after re-admission", s.Won, len(p.Tasks))
	}
}

// partialWant folds every plan task except the skipped ones — the
// ground truth a degraded run must match exactly.
func partialWant(t *testing.T, p *scan.Plan, spec Spec, skip map[int]bool) *core.Measurement {
	t.Helper()
	mk, err := spec.Kernels()
	if err != nil {
		t.Fatal(err)
	}
	var tasks []scan.Task
	for i, task := range p.Tasks {
		if !skip[i] {
			tasks = append(tasks, task)
		}
	}
	if err := scan.Execute(context.Background(), p, tasks, scan.Options{}, mk.List...); err != nil {
		t.Fatal(err)
	}
	return mk.Measurement()
}

// TestAllowPartialSkipsCorruptTask injects deterministic corruption
// into one task. Without AllowPartial the run must fail with
// ErrCorrupt; with it, the run completes degraded, the measurement
// equals the fold over the surviving tasks exactly, and the manifest
// names what was skipped.
func TestAllowPartialSkipsCorruptTask(t *testing.T) {
	spec := Spec{Patterns: []string{"error"}}
	p := testPlan(t, 24)
	const bad = 1
	corrupt := func(ctx context.Context, task int) error {
		if task == bad {
			return errs.Corrupt("task %d: checksum mismatch in doc", task)
		}
		return nil
	}

	newWorker := func() *Local {
		w, err := NewLocal("w0", p, spec)
		if err != nil {
			t.Fatal(err)
		}
		w.SetFault(corrupt)
		return w
	}

	t.Run("strict-run-fails", func(t *testing.T) {
		_, rep, err := Measure(context.Background(), p, spec, []Worker{newWorker()}, Options{})
		if !errors.Is(err, errs.ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if rep.Degraded() {
			t.Error("strict failure must not report a degraded manifest")
		}
	})

	t.Run("degraded-run-completes", func(t *testing.T) {
		want := partialWant(t, p, spec, map[int]bool{bad: true})
		m, rep, err := Measure(context.Background(), p, spec, []Worker{newWorker()}, Options{AllowPartial: true})
		if err != nil {
			t.Fatal(err)
		}
		sameMeasurement(t, m, want)
		if !rep.Degraded() {
			t.Fatal("run with a corrupt task not reported degraded")
		}
		if len(rep.Skipped) != 1 {
			t.Fatalf("Skipped = %+v, want exactly one entry", rep.Skipped)
		}
		sk := rep.Skipped[0]
		pt := p.Tasks[bad]
		if sk.Task != bad || sk.Files != pt.Hi-pt.Lo || sk.Bytes != pt.Bytes || sk.Shard != pt.Shard {
			t.Errorf("manifest entry %+v does not match plan task %d (%+v)", sk, bad, pt)
		}
		if sk.Reason == "" {
			t.Error("manifest entry has no reason")
		}
	})
}

// TestAllowPartialMultipleWorkers checks the degraded fold stays
// bit-identical at higher worker counts: the skip set is a function of
// the data, not the schedule.
func TestAllowPartialMultipleWorkers(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 24)
	skip := map[int]bool{0: true, 2: true}
	want := partialWant(t, p, spec, skip)
	corrupt := func(ctx context.Context, task int) error {
		if skip[task] {
			return errs.Corrupt("task %d: bad record", task)
		}
		return nil
	}

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", n), func(t *testing.T) {
			ws := localWorkers(t, p, spec, n)
			for _, w := range ws {
				w.(*Local).SetFault(corrupt)
			}
			m, rep, err := Measure(context.Background(), p, spec, ws, Options{AllowPartial: true})
			if err != nil {
				t.Fatal(err)
			}
			sameMeasurement(t, m, want)
			if len(rep.Skipped) != len(skip) {
				t.Fatalf("Skipped = %+v, want %d entries", rep.Skipped, len(skip))
			}
			for i, sk := range rep.Skipped {
				if !skip[sk.Task] {
					t.Errorf("entry %d skipped task %d, not in the corrupt set", i, sk.Task)
				}
			}
		})
	}
}

// TestJournalResume is the checkpoint/resume acceptance scenario: kill
// the coordinator after K of N tasks, resume from the journal, and
// check the resumed run (a) re-runs exactly N−K tasks and (b) produces
// bit-identical output to an uninterrupted run.
func TestJournalResume(t *testing.T) {
	spec := Spec{Patterns: []string{"error", "the"}, Complexity: true}
	p := testPlan(t, 24)
	want := singleNode(t, p, spec)
	n := len(p.Tasks)
	k := n / 2
	if k == 0 {
		t.Fatalf("plan too small: %d tasks", n)
	}
	path := filepath.Join(t.TempDir(), "run.journal")

	// First run: a single worker completes tasks 0..k-1 (task order is
	// deterministic with one worker), then the "coordinator dies" — the
	// fault hook cancels the run context mid-task k.
	j1, err := CreateJournal(path, p.Fingerprint(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1, err := NewLocal("w0", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := 0
	w1.SetFault(func(fctx context.Context, task int) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls > k {
			cancel()
			return errs.FromContext(fctx)
		}
		return nil
	})
	_, _, err = Measure(ctx, p, spec, []Worker{w1}, Options{Journal: j1})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("interrupted run: err = %v, want ErrCancelled", err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: reopen the journal, count actual scans, and finish.
	j2, err := OpenJournal(path, p.Fingerprint(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.States()); got != k {
		t.Fatalf("journal resumed %d tasks, want %d", got, k)
	}
	w2, err := NewLocal("w0", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	w2.SetFault(func(ctx context.Context, task int) error {
		mu.Lock()
		defer mu.Unlock()
		scanned++
		if task < k {
			t.Errorf("resumed run re-scanned journaled task %d", task)
		}
		return nil
	})
	m, rep, err := Measure(context.Background(), p, spec, []Worker{w2}, Options{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, m, want)
	if rep.Resumed != k {
		t.Errorf("Resumed = %d, want %d", rep.Resumed, k)
	}
	if scanned != n-k {
		t.Errorf("resumed run scanned %d tasks, want %d", scanned, n-k)
	}
	if rep.Workers[0].Won != n-k {
		t.Errorf("resumed worker won %d tasks, want %d", rep.Workers[0].Won, n-k)
	}
}

// TestJournalResumeCompletedRun checks resuming a journal that already
// holds every task: no scans at all, bit-identical output.
func TestJournalResumeCompletedRun(t *testing.T) {
	spec := Spec{Patterns: []string{"error"}}
	p := testPlan(t, 12)
	want := singleNode(t, p, spec)
	path := filepath.Join(t.TempDir(), "run.journal")

	j1, err := CreateJournal(path, p.Fingerprint(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Measure(context.Background(), p, spec, localWorkers(t, p, spec, 2), Options{Journal: j1}); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := OpenJournal(path, p.Fingerprint(), spec)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	w, err := NewLocal("w0", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	w.SetFault(func(ctx context.Context, task int) error {
		t.Errorf("fully-journaled run scanned task %d", task)
		return nil
	})
	m, rep, err := Measure(context.Background(), p, spec, []Worker{w}, Options{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	sameMeasurement(t, m, want)
	if rep.Resumed != len(p.Tasks) {
		t.Errorf("Resumed = %d, want %d", rep.Resumed, len(p.Tasks))
	}
}
