package core

import (
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/workload"
)

// runWithMethod executes the pipeline once with the given fit method.
func runWithMethod(t *testing.T, method FitMethod) *Result {
	t.Helper()
	fs, err := corpus.Generate(corpus.Text400K(0.005), 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Seed:            3,
		App:             workload.NewPOS(),
		DeadlineSeconds: 300,
		InitialVolume:   200_000,
		MaxVolume:       4_000_000,
		S0:              10_000,
		Multiples:       []int{10},
		FitMethod:       method,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCtx(context.Background(), fs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFitMethodsAllProduceWorkingModels(t *testing.T) {
	for _, m := range []FitMethod{FitBestR2, FitCrossValidated, FitWeighted} {
		res := runWithMethod(t, m)
		if res.Model == nil {
			t.Fatalf("method %d: no model", m)
		}
		// The POS workload is linear in volume: every method must produce
		// a model whose one-hour volume is in the same ballpark.
		x, err := res.Model.Invert(3600)
		if err != nil {
			t.Fatalf("method %d: invert: %v", m, err)
		}
		if x < 10_000_000 || x > 120_000_000 {
			t.Errorf("method %d: f⁻¹(3600) = %v bytes, outside the plausible band", m, x)
		}
		if res.Plan == nil || res.Plan.Instances < 1 {
			t.Errorf("method %d: bad plan", m)
		}
	}
}

func TestFitMethodsAgreeOnLinearTruth(t *testing.T) {
	best := runWithMethod(t, FitBestR2)
	cv := runWithMethod(t, FitCrossValidated)
	weighted := runWithMethod(t, FitWeighted)
	ref := best.Model.Predict(50_000_000)
	for name, m := range map[string]float64{
		"cv":       cv.Model.Predict(50_000_000),
		"weighted": weighted.Model.Predict(50_000_000),
	} {
		rel := m/ref - 1
		if rel < -0.2 || rel > 0.2 {
			t.Errorf("%s prediction %v deviates from best-R² %v", name, m, ref)
		}
	}
}
