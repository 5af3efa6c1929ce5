package dist

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/errs"
)

// recordingSleep returns a Sleep stub that records every requested wait
// without sleeping.
func recordingSleep(waits *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return errs.FromContext(ctx)
	}
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	var waits []time.Duration
	calls := 0
	retries, err := retryDo(context.Background(), retryPolicy{
		MaxAttempts: 5,
		Sleep:       recordingSleep(&waits),
	}, 1, func(context.Context) error {
		calls++
		if calls < 3 {
			return errs.Unavailable("attempt %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retryDo: %v", err)
	}
	if calls != 3 || retries != 2 || len(waits) != 2 {
		t.Fatalf("calls=%d retries=%d waits=%d, want 3/2/2", calls, retries, len(waits))
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	calls := 0
	retries, err := retryDo(context.Background(), retryPolicy{MaxAttempts: 5}, 1, func(context.Context) error {
		calls++
		return errs.Corrupt("shard-000")
	})
	if !errors.Is(err, errs.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if calls != 1 || retries != 0 {
		t.Fatalf("calls=%d retries=%d, want 1/0 — corrupt data must never be retried", calls, retries)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	var waits []time.Duration
	calls := 0
	retries, err := retryDo(context.Background(), retryPolicy{
		MaxAttempts: 3,
		Sleep:       recordingSleep(&waits),
	}, 1, func(context.Context) error {
		calls++
		return errs.Unavailable("always down")
	})
	if !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if calls != 3 || retries != 2 {
		t.Fatalf("calls=%d retries=%d, want 3/2", calls, retries)
	}
}

func TestDoHonoursRetryAfterHint(t *testing.T) {
	var waits []time.Duration
	hint := 40 * time.Millisecond
	calls := 0
	_, err := retryDo(context.Background(), retryPolicy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond, // jitter window far below the hint
		Sleep:       recordingSleep(&waits),
	}, 1, func(context.Context) error {
		calls++
		if calls == 1 {
			return errs.RetryAfter(errs.Unavailable("429 too many requests"), hint)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retryDo: %v", err)
	}
	if len(waits) != 1 || waits[0] < hint {
		t.Fatalf("waits = %v, want one wait >= the server's %v hint", waits, hint)
	}
}

func TestDoDeterministicJitterSchedule(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		var waits []time.Duration
		retryDo(context.Background(), retryPolicy{
			MaxAttempts: 6,
			Sleep:       recordingSleep(&waits),
		}, seed, func(context.Context) error { return errs.Unavailable("down") })
		return waits
	}
	a, b := schedule(7), schedule(7)
	if len(a) != 5 {
		t.Fatalf("schedule has %d waits, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("wait %d differs across same-seed runs: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds drew identical jitter schedules")
	}
	// Full jitter stays inside the growing window.
	p := retryPolicy{}.withDefaults()
	for i, d := range a {
		window := p.BaseDelay << uint(i)
		if window > p.MaxDelay {
			window = p.MaxDelay
		}
		if d < 0 || d >= window {
			t.Fatalf("wait %d = %v outside [0, %v)", i, d, window)
		}
	}
}

func TestDoRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	_, err := retryDo(ctx, retryPolicy{}, 1, func(context.Context) error {
		calls++
		return nil
	})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if calls != 0 {
		t.Fatal("op ran despite a cancelled context")
	}

	// Cancellation during the backoff sleep surfaces as ErrCancelled too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	_, err = retryDo(ctx2, retryPolicy{MaxAttempts: 3, Sleep: func(ctx context.Context, d time.Duration) error {
		cancel2()
		return errs.FromContext(ctx)
	}}, 1, func(context.Context) error { return errs.Unavailable("down") })
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled from mid-backoff cancellation", err)
	}
}

// TestDoCleanAttemptAllocatesNothing pins that an attempt which succeeds
// first time makes no jitter stream: only a retry draws a wait.
func TestDoCleanAttemptAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	ok := func(context.Context) error { return nil }
	if n := testing.AllocsPerRun(100, func() { retryDo(ctx, retryPolicy{}, 1, ok) }); n != 0 {
		t.Errorf("a clean attempt allocates %v times, want 0", n)
	}
}
