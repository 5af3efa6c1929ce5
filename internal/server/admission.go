package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
)

// Admission-control refusals. They are deliberately NOT part of the errs
// taxonomy: overload is not a failure of the work, it is the server
// protecting itself, and the HTTP layer maps these two directly (429 with
// Retry-After, 503 while draining) before errs.HTTPStatus ever runs.
var (
	// ErrOverloaded means both the in-flight slots and the wait queue are
	// full; the client should back off and retry.
	ErrOverloaded = errors.New("server overloaded: admission queue full")
	// ErrDraining means the server is shutting down and no longer accepts
	// scan work.
	ErrDraining = errors.New("server draining: not accepting requests")
)

// admission is the bounded-queue admission controller multiplexing
// requests onto the scan workers: at most maxInFlight requests hold a
// worker slot, at most queueDepth more wait for one, and everything beyond
// that is refused immediately so overload degrades into fast 429s rather
// than unbounded latency. Draining closes the gate: waiters are released
// with ErrDraining and new arrivals never enter the queue.
type admission struct {
	slots     chan struct{}
	queueMax  int64
	queued    atomic.Int64
	drain     chan struct{}
	drainOnce sync.Once
}

func newAdmission(maxInFlight, queueDepth int) *admission {
	if maxInFlight <= 0 {
		maxInFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &admission{
		slots:    make(chan struct{}, maxInFlight),
		queueMax: int64(queueDepth),
		drain:    make(chan struct{}),
	}
}

// acquire blocks until a worker slot is free, the queue overflows, the
// caller's context ends, or the server drains. On nil return the caller
// holds a slot and must release it.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case <-a.drain:
		return ErrDraining
	default:
	}
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	if a.queued.Add(1) > a.queueMax {
		a.queued.Add(-1)
		return ErrOverloaded
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return errs.FromContext(ctx)
	case <-a.drain:
		return ErrDraining
	}
}

// release frees the caller's worker slot.
func (a *admission) release() { <-a.slots }

// startDrain closes the gate: all waiters unblock with ErrDraining and
// future acquires refuse immediately. Idempotent.
func (a *admission) startDrain() {
	a.drainOnce.Do(func() { close(a.drain) })
}

// draining reports whether the gate is closed.
func (a *admission) draining() bool {
	select {
	case <-a.drain:
		return true
	default:
		return false
	}
}

// depth returns the current number of queued (admitted but not yet
// running) requests — the queue-depth gauge.
func (a *admission) depth() int64 { return a.queued.Load() }
