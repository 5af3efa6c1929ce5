package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/errs"
)

// TestForEachCtxMatchesForEachOnSuccess is the bit-identity acceptance
// check: an uncancelled ForEachCtx run produces exactly the per-slot
// results of a serial loop at worker counts {1, 2, 8}.
func TestForEachCtxMatchesForEachOnSuccess(t *testing.T) {
	n := 1009
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)*7919 + 13
	}
	for _, workers := range []int{1, 2, 8} {
		got := make([]int64, n)
		err := New(workers).ForEachCtx(context.Background(), n, func(i int) error {
			got[i] = int64(i)*7919 + 13
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		var ran atomic.Int64
		err := New(workers).ForEachCtx(ctx, 1000, func(i int) error {
			ran.Add(1)
			return nil
		})
		var ce *CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("workers=%d: got %v, want *CancelledError", workers, err)
		}
		if !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: %v not Is-clean against ErrCancelled/context.Canceled", workers, err)
		}
		if got := ran.Load(); got > int64(workers) {
			t.Fatalf("workers=%d: %d tasks ran after pre-cancellation", workers, got)
		}
	}
}

func TestForEachCtxCancelMidFlight(t *testing.T) {
	for _, workers := range []int{2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		n := 100_000
		err := New(workers).ForEachCtx(ctx, n, func(i int) error {
			if ran.Add(1) == 64 {
				cancel()
			}
			time.Sleep(10 * time.Microsecond)
			return nil
		})
		cancel()
		if !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("workers=%d: got %v, want ErrCancelled", workers, err)
		}
		// Dispatch must stop promptly: well under the full task count.
		if got := ran.Load(); got >= int64(n) {
			t.Fatalf("workers=%d: all %d tasks ran despite cancellation", workers, got)
		}
	}
}

func TestForEachCtxDeadlineMapsToErrDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	err := New(4).ForEachCtx(ctx, 100, func(i int) error { return nil })
	if !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("errors.Is(%v, ErrDeadline) = false", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(%v, context.DeadlineExceeded) = false", err)
	}
	if errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("deadline expiry categorised as plain cancellation: %v", err)
	}
}

// TestForEachCtxTaskErrorBeatsCancellation: when a dispatched task failed,
// the lowest-index task error is reported even if the context was also
// cancelled by the time the fan-out returns.
func TestForEachCtxTaskErrorBeatsCancellation(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := New(4).ForEachCtx(ctx, 100, func(i int) error {
		if i == 3 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the task error", err)
	}
}

func TestMapCtxSuccessAndCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		out, err := mapCtx(context.Background(), New(workers), 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := mapCtx(ctx, New(4), 100, func(i int) (int, error) { return i, nil })
	if out != nil || !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled map: (%v, %v)", out, err)
	}
}

func TestSumChunksCtxSuccessAndCancel(t *testing.T) {
	n := 10_001
	want, err := New(1).SumChunksCtx(context.Background(), n, func(lo, hi int) (int64, error) {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := New(workers).SumChunksCtx(context.Background(), n, func(lo, hi int) (int64, error) {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s, nil
		})
		if err != nil || got != want {
			t.Fatalf("workers=%d: (%d, %v), want %d", workers, got, err, want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := New(workers).SumChunksCtx(ctx, n, func(lo, hi int) (int64, error) { return 0, nil })
		if !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("workers=%d: got %v, want ErrCancelled", workers, err)
		}
	}
}
