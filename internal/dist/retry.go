package dist

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/errs"
)

// retryPolicy shapes an attempt's in-place retry loop: a worker whose
// Scan fails retryably (errs.IsRetryable — ErrUnavailable, refused
// connections, timeouts) is retried on the same worker, with exponential
// backoff and full jitter, before the coordinator gives the task away. It
// is a test seam: the zero value is what every run uses.
type retryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// 0 means defaultRetryAttempts; 1 disables retries.
	MaxAttempts int
	// BaseDelay scales the first backoff window (0 = defaultBaseDelay).
	BaseDelay time.Duration
	// MaxDelay caps every backoff window (0 = defaultMaxDelay).
	MaxDelay time.Duration
	// Sleep waits for d or until ctx is done, returning the ctx's
	// categorised error in the latter case. nil means a real timer;
	// tests substitute a recording stub so nothing actually sleeps.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Defaults for retryPolicy's zero fields.
const (
	// defaultRetryAttempts bounds one attempt's loop: the first try plus
	// up to three retries.
	defaultRetryAttempts = 4
	// defaultBaseDelay is the upper bound of the first backoff draw.
	defaultBaseDelay = 5 * time.Millisecond
	// defaultMaxDelay caps the exponential growth.
	defaultMaxDelay = 250 * time.Millisecond
)

func (p retryPolicy) withDefaults() retryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultRetryAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = defaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = defaultMaxDelay
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

// retryDo runs op, retrying transient failures (errs.IsRetryable) until
// op succeeds, a non-retryable error occurs, the policy's attempts run
// out, or ctx is cancelled. It returns the number of retries performed
// (0 when the first attempt decided the outcome) and the final error.
//
// Each wait is drawn uniformly from [0, min(MaxDelay, BaseDelay·2^n)) —
// "full jitter", so independent loops do not stampede a struggling
// worker in lockstep — from a stream seeded with seed, so a chaos run's
// wait schedule, like its fault schedule, replays. The stream is made at
// the first retry: a clean attempt draws nothing. An errs.RetryAfter
// hint on the error (the HTTP Retry-After header on 429/503) raises the
// wait to at least the server's ask.
func retryDo(ctx context.Context, p retryPolicy, seed int64, op func(ctx context.Context) error) (retries int, err error) {
	p = p.withDefaults()
	var rng *rand.Rand
	for attempt := 0; ; attempt++ {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return retries, cerr
		}
		err = op(ctx)
		if err == nil || !errs.IsRetryable(err) || attempt+1 >= p.MaxAttempts {
			return retries, err
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
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
func (p retryPolicy) backoff(rng *rand.Rand, attempt int) time.Duration {
	window := p.BaseDelay << uint(attempt)
	if window <= 0 || window > p.MaxDelay { // <=0 catches shift overflow
		window = p.MaxDelay
	}
	return time.Duration(rng.Int63n(int64(window)))
}
