// Package retry is the resilience layer's backoff engine: exponential
// backoff with full jitter, a shared per-run retry budget, and
// retryability classified by the errs taxonomy. It exists because the
// distributed scan (internal/dist) must survive the faults the paper's
// EC2 deployment actually saw — transient I/O errors, refused
// connections, overloaded workers — without ever retrying a
// deterministic failure (corrupt shard, bad argument) and without
// letting independent retry loops stampede a struggling worker in
// lockstep.
//
// The jitter follows the "full jitter" scheme: each wait is drawn
// uniformly from [0, min(MaxDelay, BaseDelay·2^attempt)). Draws come
// from a seeded stream, so a chaos run's wait schedule — like its fault
// schedule (internal/fault) — is replayable from the seed.
//
// Server-provided hints win over the dice: when an error carries an
// errs.RetryAfter annotation (the HTTP Retry-After header on 429/503),
// the loop waits at least that long.
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/errs"
)

// Defaults applied by Policy.withDefaults for zero fields.
const (
	// DefaultMaxAttempts bounds one Do call: the first try plus up to
	// three retries.
	DefaultMaxAttempts = 4
	// DefaultBaseDelay is the upper bound of the first backoff draw.
	DefaultBaseDelay = 5 * time.Millisecond
	// DefaultMaxDelay caps the exponential growth.
	DefaultMaxDelay = 250 * time.Millisecond
)

// Policy configures one retry loop. The zero value is usable: defaults
// above, seed 1, real sleeping.
type Policy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// 0 means DefaultMaxAttempts; 1 disables retries.
	MaxAttempts int
	// BaseDelay scales the first backoff window (0 = DefaultBaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps every backoff window (0 = DefaultMaxDelay).
	MaxDelay time.Duration
	// Seed selects the deterministic jitter stream (0 = seed 1). Two Do
	// calls with the same seed draw identical wait schedules.
	Seed int64
	// Sleep waits for d or until ctx is done, returning the ctx's
	// categorised error in the latter case. nil means a real timer;
	// tests substitute a recording stub so nothing actually sleeps.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = sleep
	}
	return p
}

func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return errs.FromContext(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return errs.FromContext(ctx)
	case <-t.C:
		return nil
	}
}

// Budget is a concurrency-safe retry allowance shared by every retry
// loop of one run. It bounds the *total* number of retries a scan may
// spend across all workers and tasks, so a systemic fault (every shard
// read failing) degenerates into a prompt loud failure instead of an
// exponential stall. A nil *Budget means unlimited.
type Budget struct {
	mu        sync.Mutex
	remaining int
}

// NewBudget returns a budget allowing n retries in total.
func NewBudget(n int) *Budget {
	return &Budget{remaining: n}
}

// Take consumes one retry from the budget, reporting false when it is
// exhausted (the caller must surface the last error instead of
// retrying). A nil budget always grants.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.remaining <= 0 {
		return false
	}
	b.remaining--
	return true
}

// Do runs op, retrying transient failures (errs.IsRetryable) with
// exponential backoff and full jitter until op succeeds, a
// non-retryable error occurs, attempts or the shared budget run out, or
// ctx is cancelled. It returns the number of retries performed (0 when
// the first attempt decided the outcome) and the final error.
//
// Waits are drawn from the policy's seeded stream; an errs.RetryAfter
// hint on the error raises the wait to at least the server's ask.
func Do(ctx context.Context, p Policy, b *Budget, op func(ctx context.Context) error) (retries int, err error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	for attempt := 0; ; attempt++ {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return retries, cerr
		}
		err = op(ctx)
		if err == nil || !errs.IsRetryable(err) {
			return retries, err
		}
		if attempt+1 >= p.MaxAttempts || !b.Take() {
			return retries, err
		}
		d := p.backoff(rng, attempt)
		if hint, ok := errs.RetryAfterHint(err); ok && hint > d {
			d = hint
		}
		if serr := p.Sleep(ctx, d); serr != nil {
			return retries, serr
		}
		retries++
	}
}

// backoff draws the full-jitter wait for the given attempt index:
// uniform over [0, min(MaxDelay, BaseDelay·2^attempt)).
func (p Policy) backoff(rng *rand.Rand, attempt int) time.Duration {
	window := p.BaseDelay << uint(attempt)
	if window <= 0 || window > p.MaxDelay { // <=0 catches shift overflow
		window = p.MaxDelay
	}
	return time.Duration(rng.Int63n(int64(window)))
}
