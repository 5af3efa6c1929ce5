package errs

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestFromContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	if err := FromContext(ctx); err != nil {
		t.Fatalf("live context produced %v", err)
	}
	cancel()
	err := FromContext(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("errors.Is(%v, ErrCancelled) = false", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(%v, context.Canceled) = false", err)
	}
	if errors.Is(err, ErrDeadline) {
		t.Fatalf("cancelled context categorised as deadline: %v", err)
	}
}

func TestFromContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	err := FromContext(ctx)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("errors.Is(%v, ErrDeadline) = false", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(%v, context.DeadlineExceeded) = false", err)
	}
	if !IsCancellation(err) {
		t.Fatalf("IsCancellation(%v) = false", err)
	}
}

func TestCategorizeIdempotent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	once := FromContext(ctx)
	twice := Categorize(once)
	if twice != once {
		t.Fatalf("re-categorising wrapped again: %v vs %v", twice, once)
	}
	plain := errors.New("unrelated")
	if Categorize(plain) != plain {
		t.Fatal("non-context error was rewrapped")
	}
	if Categorize(nil) != nil {
		t.Fatal("nil error categorised to non-nil")
	}
}

func TestStageErrorIdentity(t *testing.T) {
	cause := Corrupt("member %q checksum mismatch", "unit-000001")
	err := StageFile("verify", "unit-000001", cause)

	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("errors.Is(%v, ErrCorrupt) = false", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("errors.As(%v, *StageError) = false", err)
	}
	if se.Stage != "verify" || se.File != "unit-000001" {
		t.Fatalf("stage identity lost: %+v", se)
	}
	if got := StageOf(err); got != "verify" {
		t.Fatalf("StageOf = %q, want verify", got)
	}
	if got := StageOf(errors.New("bare")); got != "" {
		t.Fatalf("StageOf(bare) = %q", got)
	}
}

func TestStageNilPassThrough(t *testing.T) {
	if Stage("s", nil) != nil || StageFile("s", "f", nil) != nil {
		t.Fatal("nil error gained a stage wrapper")
	}
}

func TestStageErrorThroughFmtWrap(t *testing.T) {
	inner := Stage("probing", NotFound("dataset %q", "probe-v1-u0"))
	outer := fmt.Errorf("core: %w", inner)
	if !errors.Is(outer, ErrNotFound) {
		t.Fatalf("errors.Is through fmt wrap failed: %v", outer)
	}
	if StageOf(outer) != "probing" {
		t.Fatalf("StageOf through fmt wrap = %q", StageOf(outer))
	}
}

// NotFound builds an ErrNotFound-tagged error, as a peer's 404 reads.
func NotFound(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrNotFound)...)
}

func TestConstructors(t *testing.T) {
	cases := []struct {
		err  error
		want error
	}{
		{Corrupt("bad %d", 7), ErrCorrupt},
		{NotFound("missing %s", "x"), ErrNotFound},
		{Invalid("size %d", -1), ErrInvalid},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.want) {
			t.Errorf("errors.Is(%v, %v) = false", c.err, c.want)
		}
	}
}
