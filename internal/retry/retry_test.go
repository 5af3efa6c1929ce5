package retry

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
	retries, err := Do(context.Background(), Policy{
		MaxAttempts: 5,
		Sleep:       recordingSleep(&waits),
	}, nil, func(context.Context) error {
		calls++
		if calls < 3 {
			return errs.Unavailable("attempt %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || retries != 2 || len(waits) != 2 {
		t.Fatalf("calls=%d retries=%d waits=%d, want 3/2/2", calls, retries, len(waits))
	}
}

func TestDoStopsOnNonRetryable(t *testing.T) {
	calls := 0
	retries, err := Do(context.Background(), Policy{MaxAttempts: 5}, nil, func(context.Context) error {
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
	retries, err := Do(context.Background(), Policy{
		MaxAttempts: 3,
		Sleep:       recordingSleep(&waits),
	}, nil, func(context.Context) error {
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

// used reports how many of the n retries b was created with have been
// taken; a nil budget grants without counting.
func used(b *Budget, n int) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return n - b.remaining
}

func TestDoHonoursSharedBudget(t *testing.T) {
	b := NewBudget(3)
	var waits []time.Duration
	p := Policy{MaxAttempts: 10, Sleep: recordingSleep(&waits)}
	fail := func(context.Context) error { return errs.Unavailable("down") }

	// First loop spends the whole budget.
	if retries, _ := Do(context.Background(), p, b, fail); retries != 3 {
		t.Fatalf("first loop performed %d retries, want 3 (budget-capped)", retries)
	}
	// Second loop finds it empty: one attempt, no retries.
	retries, err := Do(context.Background(), p, b, fail)
	if retries != 0 || !errors.Is(err, errs.ErrUnavailable) {
		t.Fatalf("retries=%d err=%v, want 0 retries with the last error surfaced", retries, err)
	}
	if got := used(b, 3); got != 3 {
		t.Fatalf("budget used = %d, want 3", got)
	}
}

func TestDoHonoursRetryAfterHint(t *testing.T) {
	var waits []time.Duration
	hint := 40 * time.Millisecond
	calls := 0
	_, err := Do(context.Background(), Policy{
		MaxAttempts: 2,
		BaseDelay:   time.Millisecond,
		MaxDelay:    2 * time.Millisecond, // jitter window far below the hint
		Sleep:       recordingSleep(&waits),
	}, nil, func(context.Context) error {
		calls++
		if calls == 1 {
			return errs.RetryAfter(errs.Unavailable("429 too many requests"), hint)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if len(waits) != 1 || waits[0] < hint {
		t.Fatalf("waits = %v, want one wait >= the server's %v hint", waits, hint)
	}
}

func TestDoDeterministicJitterSchedule(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		var waits []time.Duration
		Do(context.Background(), Policy{
			MaxAttempts: 6,
			Seed:        seed,
			Sleep:       recordingSleep(&waits),
		}, nil, func(context.Context) error { return errs.Unavailable("down") })
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
	p := Policy{}.withDefaults()
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
	_, err := Do(ctx, Policy{}, nil, func(context.Context) error {
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
	_, err = Do(ctx2, Policy{MaxAttempts: 3, Sleep: func(ctx context.Context, d time.Duration) error {
		cancel2()
		return errs.FromContext(ctx)
	}}, nil, func(context.Context) error { return errs.Unavailable("down") })
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled from mid-backoff cancellation", err)
	}
}

func TestNilBudgetUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 100; i++ {
		if !b.Take() {
			t.Fatal("nil budget must always grant")
		}
	}
	if used(b, 0) != 0 {
		t.Fatal("nil budget reports nonzero use")
	}
}
