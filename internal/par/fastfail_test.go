package par

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachFastFailBoundsWastedWork is the regression test for the
// fast-fail gap: after an early failure, the number of additional tasks
// dispatched must be bounded by a small constant, not scale with n.
// Before fast-fail, a failure at index 3 still dispatched all n tasks.
func TestForEachFastFailBoundsWastedWork(t *testing.T) {
	boom := errors.New("boom")
	for _, n := range []int{1_000, 100_000} {
		for _, workers := range []int{2, 8} {
			var ran atomic.Int64
			err := New(workers).ForEachCtx(context.Background(), n, func(i int) error {
				ran.Add(1)
				if i == 3 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("n=%d workers=%d: got %v", n, workers, err)
			}
			// Each worker can dispatch at most a handful of tasks before
			// observing the stop flag; generously allow 64 per worker. The
			// point is that the bound is independent of n.
			if got, limit := ran.Load(), int64(workers*64); got > limit {
				t.Fatalf("n=%d workers=%d: %d tasks ran after early failure (limit %d)", n, workers, got, limit)
			}
		}
	}
}

// TestForEachSerialFastFail: the w<=1 path must also stop at the first
// error instead of continuing through the remaining indices.
func TestForEachSerialFastFail(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	err := New(1).ForEachCtx(context.Background(), 1000, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if ran != 4 {
		t.Fatalf("serial path ran %d tasks after failure at index 3", ran)
	}
}
