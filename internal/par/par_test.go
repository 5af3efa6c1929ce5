package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 32} {
		n := 257
		counts := make([]atomic.Int32, n)
		err := New(workers).ForEachCtx(context.Background(), n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 8} {
		err := New(workers).ForEachCtx(context.Background(), 100, func(i int) error {
			switch i {
			case 90:
				return errHigh
			case 7:
				return errLow
			}
			return nil
		})
		if err != errLow {
			t.Errorf("workers=%d: got %v, want the lowest-index error", workers, err)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := Default().ForEachCtx(context.Background(), 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

// mapCtx is the slot-per-index idiom every caller of ForEachCtx uses to
// collect results: task i writes out[i] and nothing else.
func mapCtx[T any](ctx context.Context, p *Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := p.ForEachCtx(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		out, err := mapCtx(context.Background(), New(workers), 50, func(i int) (string, error) {
			return fmt.Sprintf("task-%02d", i), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if want := fmt.Sprintf("task-%02d", i); v != want {
				t.Fatalf("workers=%d: out[%d]=%q", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := mapCtx(context.Background(), New(4), 10, func(i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if err != boom || out != nil {
		t.Fatalf("got (%v, %v)", out, err)
	}
}

func TestSumChunksDeterministic(t *testing.T) {
	n := 10_001
	sum := func(workers int) int64 {
		t.Helper()
		got, err := New(workers).SumChunksCtx(context.Background(), n, func(lo, hi int) (int64, error) {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)*3 + 1
			}
			return s, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := sum(1)
	for _, workers := range []int{2, 3, 7, runtime.NumCPU()} {
		if got := sum(workers); got != serial {
			t.Errorf("workers=%d: sum %d != serial %d", workers, got, serial)
		}
	}
}

func TestSumChunksError(t *testing.T) {
	boom := errors.New("bad chunk")
	_, err := New(4).SumChunksCtx(context.Background(), 1000, func(lo, hi int) (int64, error) {
		if lo <= 500 && 500 < hi {
			return 0, boom
		}
		return 0, nil
	})
	if err != boom {
		t.Fatalf("got %v", err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if w := Default().Workers(); w < 1 {
		t.Fatalf("default workers %d", w)
	}
	if w := New(-5).Workers(); w < 1 {
		t.Fatalf("negative-normalised workers %d", w)
	}
}
