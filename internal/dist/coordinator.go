package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/errs"
	"repro/internal/fnv64"
	"repro/internal/scan"
)

// Options configures a coordinated run.
type Options struct {
	// MaxAttempts caps how many coordinator-level attempts one task may
	// consume — the first dispatch plus steals and re-dispatches
	// (0 = DefaultMaxAttempts). Each attempt first retries a retryable
	// failure in place on its worker, with backoff. A task whose last
	// attempt fails retryably fails the run at once, with that failure
	// as the cause.
	MaxAttempts int
	// AllowPartial degrades instead of aborting when a task fails
	// deterministically with ErrCorrupt: the task is skipped, the rest
	// of the plan completes, and the Report carries an explicit manifest
	// of what was left out. Without it a corrupt shard fails the run.
	AllowPartial bool
	// Journal, when set, checkpoints every completed task's kernel
	// states and pre-loads tasks the journal already holds, so a killed
	// coordinator resumes instead of rescanning — bit-identically, since
	// the journaled states fold through the same frontier.
	Journal *Journal

	// Test seams, set only by this package's tests: retry shapes each
	// attempt's in-place retry loop, health tunes worker health gating
	// (trip, quarantine, probe, re-admission).
	retry  retryPolicy
	health healthOptions
}

// DefaultMaxAttempts allows the initial dispatch plus two recoveries.
const DefaultMaxAttempts = 3

// healthOptions tunes the consecutive-failure trip and the
// quarantine/probe/re-admission loop that replaced the engine's old
// permanent-death model: a worker that keeps failing is quarantined
// (gets no work), probed periodically, and either re-admitted when a
// probe succeeds or declared dead when MaxProbes all fail.
type healthOptions struct {
	// TripAfter is the consecutive exhausted-retry failure count that
	// quarantines a worker (0 = DefaultTripAfter).
	TripAfter int
	// ProbeInterval spaces the quarantine probes (0 = DefaultProbeInterval).
	ProbeInterval time.Duration
	// MaxProbes is how many probes a quarantined worker gets before it
	// is declared dead for the rest of the run (0 = DefaultMaxProbes).
	MaxProbes int
}

// Health gating defaults.
const (
	DefaultTripAfter     = 2
	DefaultProbeInterval = 50 * time.Millisecond
	DefaultMaxProbes     = 3
)

func (h healthOptions) withDefaults() healthOptions {
	if h.TripAfter <= 0 {
		h.TripAfter = DefaultTripAfter
	}
	if h.ProbeInterval <= 0 {
		h.ProbeInterval = DefaultProbeInterval
	}
	if h.MaxProbes <= 0 {
		h.MaxProbes = DefaultMaxProbes
	}
	return h
}

// HealthChecker is the optional probe surface of a Worker: Probe
// reports nil when the worker can take work again. HTTPWorker probes
// GET /healthz. Workers without the interface, Local among them, are
// assumed healthy — their quarantine ends at the first probe tick.
type HealthChecker interface {
	Probe(ctx context.Context) error
}

// WorkerStats reports one worker's share of a completed run.
type WorkerStats struct {
	// Name is the worker's self-reported identity.
	Name string
	// Started counts task attempts the worker began.
	Started int
	// Won counts attempts whose result the merge frontier used; losing
	// speculative attempts count in Started only.
	Won int
	// Stolen counts attempts that speculated on a task already running
	// elsewhere.
	Stolen int
	// Retries counts transient same-worker retries spent on this worker.
	Retries int
	// Quarantined counts how many times the worker tripped the health
	// gate and was benched for probing.
	Quarantined int
	// Dead reports the worker failed every probe of a quarantine and
	// left the run for good; any task it was running was re-dispatched.
	// A worker still benched when the run ends is not dead.
	Dead bool
	// Busy is the time the worker spent inside Scan, winning attempts
	// and losing ones alike.
	Busy time.Duration
	// Bytes totals the plan bytes of the tasks the worker won.
	Bytes int64
}

// SkippedTask is one entry of a degraded run's manifest: a task the
// coordinator abandoned under AllowPartial because its data is corrupt,
// with enough identity (shard, file count, bytes) for the operator to
// quarantine and repair the shard.
type SkippedTask struct {
	// Task is the plan task index.
	Task int
	// Shard is the pack shard the task scans ("" for shard-less tasks).
	Shard string
	// Files and Bytes describe the skipped slice of the corpus.
	Files int
	Bytes int64
	// Reason is the corruption error that condemned the task.
	Reason string
}

// Report describes a completed (or failed) run: who did what, what was
// retried, what was resumed from the checkpoint, and — for degraded
// runs — exactly what was skipped.
type Report struct {
	// Workers holds per-worker tallies, in fleet order.
	Workers []WorkerStats
	// Skipped is the degraded manifest, sorted by task index. Empty on
	// full runs.
	Skipped []SkippedTask
	// Retries totals the transient same-worker retries across the run.
	Retries int
	// Resumed counts tasks whose states were loaded from the journal
	// instead of scanned.
	Resumed int
	// Wall is how long the run took, dispatch to last fold.
	Wall time.Duration
	// MedianAttempt and MaxAttempt describe the successful attempts,
	// claim to answer — the steal policy's yardstick.
	MedianAttempt, MaxAttempt time.Duration
}

// Degraded reports whether the run skipped any tasks — the result is a
// partial measurement and must be labelled as such.
func (r *Report) Degraded() bool { return len(r.Skipped) > 0 }

// coordinator is the shared state the per-worker loops contend on. All
// fields are guarded by mu; cond wakes waiting loops when a task
// completes, a task is requeued, or the run is over.
type coordinator struct {
	mu   sync.Mutex
	cond *sync.Cond

	tasks       []taskState
	done        int // completed tasks (won, resumed or skipped)
	maxAttempts int

	// frontier is the next task to fold: results are merged into the
	// prototypes strictly in task order, exactly like the scan engine's
	// per-file merge frontier, so the distributed fold is bit-identical
	// to the in-process one. Skipped tasks are stepped over — their
	// absence, not some placeholder, is what makes the result partial.
	frontier int
	protos   []scan.Kernel
	// folds holds one fork per prototype, made once per run: every task's
	// states are restored into it and merged out of it, which drains it
	// for the next task. Only advanceFrontier touches it, under mu.
	folds []scan.Kernel

	rep     *Report
	journal *Journal
	allow   bool // AllowPartial

	// fatalErr is the run's verdict on task failure: the error from the
	// lowest failing task index, mirroring par.Pool's contract so
	// single-node and distributed runs report the same error for the
	// same fault.
	fatalErr  error
	fatalTask int

	// cancelled is set when the run context ends; loops drain out.
	cancelled bool

	// took holds every successful attempt's duration, sorted.
	took []time.Duration
}

type taskState struct {
	running  int // attempts in flight right now
	attempts int // attempts ever started
	done     bool
	skipped  bool     // done by abandonment (AllowPartial), nothing to fold
	states   [][]byte // winning result, nil once folded
	release  func()   // hands states' buffer back once folded (ScanResponse.release)

	started time.Time            // when the task last went from idle to running
	cancels []context.CancelFunc // stop its attempts; finish calls them
}

// stealAfter is how many times the run's median successful attempt a
// task must have been running before an idle worker duplicates it. At
// 2× a healthy fleet starts every task once (dist-packed: 13 attempts
// for 13 tasks, where stealing the moment the queue emptied made it 14
// on every run), and a true straggler is picked up one median late.
const stealAfter = 2

func (c *coordinator) finished() bool {
	return c.done == len(c.tasks) || c.fatalErr != nil || c.cancelled
}

func (c *coordinator) fail(task int, err error) {
	if c.fatalErr == nil || task < c.fatalTask {
		c.fatalErr = err
		c.fatalTask = task
	}
}

// pick chooses the worker's next task under mu: the lowest-index task
// nobody is running (fresh, or requeued after a failed attempt), else —
// work stealing — the lowest-index running task, still within its
// attempt budget, that has become a straggler: in flight for more than
// stealAfter × the median successful attempt (any running task while
// nothing has completed yet: no yardstick, and a one-task plan on two
// workers must stay live). The first completed attempt wins and cancels
// the rest. With no straggler yet, wait is how long until there is one.
func (c *coordinator) pick(now time.Time) (task int, steal, ok bool, wait time.Duration) {
	for i := range c.tasks {
		t := &c.tasks[i]
		if !t.done && t.running == 0 && t.attempts < c.maxAttempts {
			return i, false, true, 0
		}
	}
	var allowance time.Duration
	if n := len(c.took); n > 0 {
		allowance = stealAfter * c.took[n/2]
	}
	for i := range c.tasks {
		t := &c.tasks[i]
		if t.done || t.attempts >= c.maxAttempts {
			continue
		}
		left := allowance - now.Sub(t.started)
		if left <= 0 {
			return i, true, true, 0
		}
		if wait == 0 || left < wait {
			wait = left
		}
	}
	return 0, false, false, wait
}

// advanceFrontier folds every contiguously-completed task's states into
// the prototypes, in task order: restore the portable state into the
// prototype's fold fork, merge — the exact in-process fold with a Restore
// spliced in. Merge drains the fork, so the next task restores into the
// same one and its row capacity. Skipped tasks contribute nothing and are
// stepped over. Called under mu; Merge is never concurrent, per the
// kernel contract.
func (c *coordinator) advanceFrontier() {
	for c.frontier < len(c.tasks) && c.tasks[c.frontier].done {
		t := &c.tasks[c.frontier]
		if t.skipped {
			c.frontier++
			continue
		}
		if len(t.states) != len(c.protos) {
			c.fail(c.frontier, errs.Invalid("task %d returned %d kernel states, want %d",
				c.frontier, len(t.states), len(c.protos)))
			return
		}
		for j, proto := range c.protos {
			if err := scan.RestoreKernel(c.folds[j], t.states[j]); err != nil {
				c.fail(c.frontier, err)
				return
			}
			proto.Merge(c.folds[j])
		}
		if t.release != nil {
			t.release()
		}
		t.states, t.release = nil, nil
		c.frontier++
	}
}

// finish marks t done under mu and cancels whatever attempts on it are
// still in flight — over HTTP that closes the connection, which stops
// the daemon's scan at its next per-file check.
func (c *coordinator) finish(t *taskState) {
	t.done = true
	c.done++
	for _, cancel := range t.cancels {
		cancel()
	}
	t.cancels = nil
}

// complete records a winning result for task under mu: journal first
// (durability before visibility), then fold, which releases the
// answer's buffer. Late duplicate wins (a steal losing the race) are
// discarded by the caller's done check.
func (c *coordinator) complete(task int, resp *ScanResponse) {
	t := &c.tasks[task]
	if c.journal != nil {
		if err := c.journal.Append(task, resp.States); err != nil {
			c.fail(task, err)
			return
		}
	}
	c.finish(t)
	t.states, t.release = resp.States, resp.release
	c.advanceFrontier()
}

// skip abandons task under mu with the corruption that condemned it,
// recording the degraded-manifest entry.
func (c *coordinator) skip(task int, plan *scan.Plan, cause error) {
	t := &c.tasks[task]
	pt := plan.Tasks[task]
	c.finish(t)
	t.skipped = true
	c.rep.Skipped = append(c.rep.Skipped, SkippedTask{
		Task:   task,
		Shard:  pt.Shard,
		Files:  pt.Hi - pt.Lo,
		Bytes:  pt.Bytes,
		Reason: cause.Error(),
	})
	c.advanceFrontier()
}

// sleep waits on the cond under mu until something completes or fails —
// or, when wait > 0, until the running task it was computed for has
// become a straggler.
func (c *coordinator) sleep(wait time.Duration) {
	if wait > 0 {
		defer time.AfterFunc(wait, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		}).Stop()
	}
	c.cond.Wait()
}

// mixSeed seeds an attempt's backoff jitter from the plan, the worker's
// name and the task: the same run draws the same waits, a fleet does not
// back off in lockstep, and a worker's retries of different tasks draw
// different waits.
func mixSeed(planFP uint64, name string, task int) int64 {
	return int64(fnv64.FoldU64(fnv64.FoldString(fnv64.FoldU64(fnv64.Offset, planFP), name), uint64(task)))
}

// probe runs one quarantine's probe loop outside mu: up to MaxProbes
// probes, ProbeInterval apart, ending early when the run finishes or
// the context dies. It reports whether the worker may rejoin and, when
// it may not, whether that is because every probe failed — the one way
// a worker dies — rather than the run ending around it.
func (c *coordinator) probe(ctx context.Context, w Worker, h healthOptions) (rejoin, dead bool) {
	hc, probeable := w.(HealthChecker)
	for i := 0; i < h.MaxProbes; i++ {
		t := time.NewTimer(h.ProbeInterval)
		select {
		case <-ctx.Done():
			t.Stop()
			return false, false
		case <-t.C:
		}
		c.mu.Lock()
		over := c.finished()
		c.mu.Unlock()
		if over {
			return false, false
		}
		if !probeable || hc.Probe(ctx) == nil {
			return true, false
		}
	}
	return false, true
}

// Run distributes the plan's tasks across the workers and folds their
// kernel states into the prototypes in task order. On success the
// prototypes hold exactly what scan.Execute over the full plan would
// have left in them — bit-identical by the portable-state and
// associative-fold contracts — unless the Report says Degraded, in
// which case they hold exactly the non-skipped tasks' fold. The Report
// describes who did what (returned for failed runs too, for
// diagnostics). On failure the prototypes hold an unspecified prefix
// and must be discarded; the error is the lowest-task-index failure,
// with cancellation mapped through the errs sentinels per the scan
// determinism contract.
//
// Every attempt runs under its own child of ctx, which the attempt that
// completes the task first cancels: Run returns when the work is done,
// not when the slowest copy of it is.
//
// Resilience: a retryably-failing Scan (errs.IsRetryable) is retried on
// the same worker with jittered backoff, then requeued; a task whose
// MaxAttempts-th attempt fails that way fails the run; a worker
// whose failures trip the health gate is quarantined, probed, and
// re-admitted or declared dead; ErrCorrupt under AllowPartial skips the
// task; completed tasks are journaled (Options.Journal) and journaled
// tasks are folded without rescanning.
//
// Run's errors do not name the stage; Measure wraps them in it.
func Run(ctx context.Context, plan *scan.Plan, spec Spec, workers []Worker, opts Options, protos ...scan.Kernel) (*Report, error) {
	begin := time.Now()
	rep := &Report{Workers: make([]WorkerStats, len(workers))}
	for i, w := range workers {
		rep.Workers[i] = WorkerStats{Name: w.Name()}
	}
	if len(workers) == 0 {
		return rep, errs.Invalid("no workers")
	}
	if len(protos) == 0 {
		return rep, errs.Invalid("no kernels registered")
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	health := opts.health.withDefaults()

	c := &coordinator{
		tasks:       make([]taskState, len(plan.Tasks)),
		maxAttempts: maxAttempts,
		protos:      protos,
		folds:       make([]scan.Kernel, len(protos)),
		rep:         rep,
		journal:     opts.Journal,
		allow:       opts.AllowPartial,
	}
	c.cond = sync.NewCond(&c.mu)
	// The prototypes end up holding a row per plan source, so they are
	// sized for all of them before the first fold.
	for j, proto := range protos {
		c.folds[j] = proto.Fork()
		if r, ok := proto.(scan.Reserver); ok {
			r.Reserve(len(plan.Sources))
		}
	}

	// Resume: journaled tasks are done before any worker starts; the
	// frontier folds the leading run of them immediately, and the rest
	// fold as the gaps fill — bit-identically, because fold order is
	// task order regardless of where states came from.
	if opts.Journal != nil {
		for task, states := range opts.Journal.States() {
			if task < 0 || task >= len(c.tasks) {
				return rep, errs.Invalid("journal task %d out of range (plan has %d)", task, len(c.tasks))
			}
			t := &c.tasks[task]
			t.done = true
			t.states = states
			c.done++
			rep.Resumed++
		}
		c.advanceFrontier()
		if c.fatalErr != nil {
			return rep, c.fatalErr
		}
	}

	// A context watcher flips the run into draining: waiting loops wake
	// and exit, in-flight Scan calls unwind through their own ctx.
	stopWatch := context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cancelled = true
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer stopWatch()

	planFP := plan.Fingerprint()
	var wg sync.WaitGroup
	for wi, w := range workers {
		wg.Add(1)
		go func(wi int, w Worker) {
			defer wg.Done()
			st := &rep.Workers[wi]
			consecFails := 0
			for {
				c.mu.Lock()
				var task int
				var steal bool
				for {
					if c.finished() {
						c.mu.Unlock()
						return
					}
					var ok bool
					var wait time.Duration
					if task, steal, ok, wait = c.pick(time.Now()); ok {
						break
					}
					// Nothing to claim, so some attempt is in flight: every
					// attempt ends by leaving its task claimable, marking it
					// done or ending the run (a task whose last attempt
					// failed retryably fails it below), and each of those
					// broadcasts.
					c.sleep(wait)
				}
				t := &c.tasks[task]
				claimed := time.Now()
				if t.running == 0 {
					t.started = claimed
				}
				actx, cancel := context.WithCancel(ctx)
				t.cancels = append(t.cancels, cancel)
				t.running++
				t.attempts++
				st.Started++
				if steal {
					st.Stolen++
				}
				c.mu.Unlock()

				req := &ScanRequest{PlanFP: planFP, Spec: spec, Task: task}
				var resp *ScanResponse
				var busy time.Duration
				retries, err := retryDo(actx, opts.retry, mixSeed(planFP, w.Name(), task), func(ctx context.Context) error {
					var serr error
					t0 := time.Now()
					resp, serr = w.Scan(ctx, req)
					busy += time.Since(t0)
					return serr
				})
				// A loser is an attempt a winner cancelled: its own context
				// is dead (read before the release below) and the error is
				// that echoing back. A worker that failed by itself is not
				// one, even if the task was finished elsewhere meanwhile.
				lost := err != nil && actx.Err() != nil && errs.IsCancellation(err)
				cancel()
				took := time.Since(claimed)

				quarantine := false
				c.mu.Lock()
				t.running--
				st.Retries += retries
				rep.Retries += retries
				st.Busy += busy
				switch {
				case err != nil && ctx.Err() != nil:
					// The run is being cancelled; the error is just that
					// cancellation echoing back.
					c.cancelled = true
				case lost:
					// Not a win, and not a failure the health gate hears of.
				case err == nil:
					consecFails = 0
					at, _ := slices.BinarySearch(c.took, took)
					c.took = slices.Insert(c.took, at, took)
					if !t.done {
						c.complete(task, resp)
						st.Won++
						st.Bytes += plan.Tasks[task].Bytes
					} else if resp.release != nil {
						resp.release() // a duplicate: the task is already folded or waiting
					}
				case errs.IsRetryable(err) && !t.done && t.running == 0 && t.attempts >= c.maxAttempts:
					// The task's last attempt failed and no other copy of it
					// is still trying: fail the run now, naming the cause.
					c.fail(task, fmt.Errorf("task %d failed %d attempts: %w", task, t.attempts, err))
				case errs.IsRetryable(err):
					// Transient even after in-place retries. The decrement
					// above requeues the task; the health gate decides
					// whether this worker keeps playing.
					consecFails++
					if consecFails >= health.TripAfter {
						quarantine = true
						st.Quarantined++
					}
				case errors.Is(err, errs.ErrCorrupt) && c.allow:
					// Deterministic data corruption: retrying anywhere
					// reproduces it. Degrade: abandon the task, keep the run.
					consecFails = 0
					if !t.done {
						c.skip(task, plan, err)
					}
				default:
					// A deterministic failure (invalid request, scan bug):
					// record at this task's index and stop the run.
					c.fail(task, err)
				}
				c.cond.Broadcast()
				c.mu.Unlock()

				if quarantine {
					rejoin, dead := c.probe(ctx, w, health)
					if rejoin {
						consecFails = 0
						continue
					}
					c.mu.Lock()
					st.Dead = dead
					c.cond.Broadcast()
					c.mu.Unlock()
					return
				}
			}
		}(wi, w)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	sort.Slice(rep.Skipped, func(i, j int) bool { return rep.Skipped[i].Task < rep.Skipped[j].Task })
	rep.Wall = time.Since(begin)
	if n := len(c.took); n > 0 {
		rep.MedianAttempt, rep.MaxAttempt = c.took[n/2], c.took[n-1]
	}
	switch {
	case c.fatalErr != nil:
		return rep, c.fatalErr
	case ctx.Err() != nil:
		return rep, errs.FromContext(ctx)
	case c.done < len(c.tasks):
		// Every worker loop exited (all dead) with work outstanding.
		return rep, errs.Unavailable("all %d workers unavailable with %d of %d tasks unfinished",
			len(workers), len(c.tasks)-c.done, len(c.tasks))
	}
	return rep, nil
}
