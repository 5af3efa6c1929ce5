package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/binpack"
	"repro/internal/corpus"
	"repro/internal/corpus/corpustest"
	"repro/internal/errs"
	"repro/internal/workload"
)

func profiledPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(Config{
		Seed:            17,
		App:             workload.NewPOS(),
		DeadlineSeconds: 300,
		InitialVolume:   200_000,
		MaxVolume:       4_000_000,
		S0:              10_000,
		Multiples:       []int{10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunProfileComplexityRaisesSlope(t *testing.T) {
	spec := corpus.Text400K(0.01)
	flat, err := corpustest.Ramp(spec, 17, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := corpustest.Ramp(spec, 17, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	resFlat, err := profiledPipeline(t).RunProfileCtx(context.Background(), flat)
	if err != nil {
		t.Fatal(err)
	}
	resDense, err := profiledPipeline(t).RunProfileCtx(context.Background(), dense)
	if err != nil {
		t.Fatal(err)
	}
	// Twice the complexity → roughly twice the predicted time per byte,
	// and therefore about twice the instances for the same deadline.
	at := 10_000_000.0
	ratio := resDense.Model.Predict(at) / resFlat.Model.Predict(at)
	if ratio < 1.6 || ratio > 2.4 {
		t.Errorf("model ratio = %v, want ≈2", ratio)
	}
	if resDense.Plan.Instances < resFlat.Plan.Instances {
		t.Errorf("denser corpus plans fewer instances: %d vs %d",
			resDense.Plan.Instances, resFlat.Plan.Instances)
	}
}

func TestRunProfileExecuteUsesMeanComplexity(t *testing.T) {
	spec := corpus.Text400K(0.005)
	profile, err := corpustest.Ramp(spec, 18, 0.8, 1.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := profiledPipeline(t)
	res, err := p.RunProfileCtx(context.Background(), profile)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complexity == nil {
		t.Fatal("result lost the complexity map")
	}
	out, err := p.ExecuteCtx(context.Background(), res)
	if err != nil {
		t.Fatal(err)
	}
	// The calibration saw the real complexities, so the plan's predictions
	// should track the execution: no instance wildly over its prediction.
	for _, io := range out.PerInstance {
		if io.PredictedS > 0 && io.ActualS > 2*io.PredictedS {
			t.Errorf("instance %s actual %v >> predicted %v", io.InstanceID, io.ActualS, io.PredictedS)
		}
	}
}

func TestRunProfileValidation(t *testing.T) {
	p := profiledPipeline(t)
	if _, err := p.RunProfileCtx(context.Background(), nil); err == nil {
		t.Error("expected error for nil profile")
	}
	if _, err := p.RunProfileCtx(context.Background(), &corpus.Profile{}); err == nil {
		t.Error("expected error for profile without corpus")
	}
	// One complexity per file, in List order: a profile of any other
	// length would price files by the wrong positions.
	profile, err := corpustest.Ramp(corpus.Text400K(0.001), 3, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, profile.FS.Len() - 1, profile.FS.Len() + 1} {
		short := &corpus.Profile{FS: profile.FS, Complexity: make([]float64, n)}
		if _, err := p.RunProfileCtx(context.Background(), short); !errors.Is(err, errs.ErrInvalid) {
			t.Errorf("%d complexities for %d files: err = %v, want ErrInvalid", n, profile.FS.Len(), err)
		}
	}
}

func TestMeanComplexityHelper(t *testing.T) {
	r := &Result{}
	if r.MeanComplexity(nil) != 1 {
		t.Error("nil complexity should mean 1")
	}
	r.Complexity = []float64{2, 0}
	// Empty bins exercise the zero-total branch.
	if got := r.MeanComplexity(nil); got != 1 {
		t.Errorf("empty bins mean = %v, want 1", got)
	}
	bins, err := binpack.FirstFit([]binpack.Item{{Size: 10}, {Size: 10}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MeanComplexity(bins); got != 1.5 {
		t.Errorf("mean = %v, want 1.5 (2 and default 1)", got)
	}
}
