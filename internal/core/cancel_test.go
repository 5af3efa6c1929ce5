package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/corpus"
	"repro/internal/errs"
	"repro/internal/workload"
)

func cancelPipeline(t *testing.T) (*Pipeline, *testing.T) {
	t.Helper()
	p, err := New(Config{
		Seed:            42,
		App:             workload.NewGrep(),
		DeadlineSeconds: 60,
		InitialVolume:   1_000_000,
		MaxVolume:       100_000_000,
		S0:              1_000_000,
		Multiples:       []int{10, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p, t
}

// TestPipelineExpiredDeadlineAborts is the acceptance check: a pipeline
// whose context deadline has already expired must abort with an error
// satisfying errors.Is(err, errs.ErrDeadline) before a plan exists —
// and therefore before anything could execute it.
func TestPipelineExpiredDeadlineAborts(t *testing.T) {
	fs, err := corpus.Generate(corpus.HTML18Mil(0.0001), 42)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := cancelPipeline(t)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	res, err := p.RunCtx(ctx, fs)
	if res != nil {
		t.Fatalf("expired deadline still produced a result (plan: %+v)", res.Plan)
	}
	if !errors.Is(err, errs.ErrDeadline) {
		t.Fatalf("errors.Is(%v, ErrDeadline) = false", err)
	}
	if stage := errs.StageOf(err); stage == "" {
		t.Fatalf("no stage identity on %v", err)
	}
}

func TestPipelineCancelledContextAborts(t *testing.T) {
	fs, err := corpus.Generate(corpus.HTML18Mil(0.0001), 42)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := cancelPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.RunCtx(ctx, fs); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrCancelled", err)
	}
	// The cancelled attempt must not corrupt the pipeline: a live run on
	// a fresh pipeline with the same seed matches one that never saw a
	// cancellation.
	pA, _ := cancelPipeline(t)
	resA, err := pA.RunCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	pB, _ := cancelPipeline(t)
	resB, err := pB.RunCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	if resA.PreferredUnit != resB.PreferredUnit || resA.Plan.Instances != resB.Plan.Instances {
		t.Fatalf("RunCtx result (%d, %d) differs from Run (%d, %d)",
			resA.PreferredUnit, resA.Plan.Instances, resB.PreferredUnit, resB.Plan.Instances)
	}
}

func TestPipelineExecuteCtxCancellation(t *testing.T) {
	fs, err := corpus.Generate(corpus.HTML18Mil(0.0001), 42)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := cancelPipeline(t)
	res, err := p.RunCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, xerr := p.ExecuteCtx(ctx, res)
	if !errors.Is(xerr, errs.ErrCancelled) {
		t.Fatalf("cancelled execute returned %v, want ErrCancelled", xerr)
	}
	if errs.StageOf(xerr) != "execution" {
		t.Fatalf("execute cancellation lost stage identity: %v", xerr)
	}
	out, err := p.ExecuteCtx(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerInstance) != res.Plan.Instances {
		t.Fatal("execution after cancelled attempt does not match plan size")
	}
}
