package sched

import (
	"math"
	"sync"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/perfmodel"
)

func baseModel(t *testing.T) perfmodel.Model {
	t.Helper()
	m, err := perfmodel.FitAffine([]float64{0, 1e9}, []float64{0, 100}) // 1e-7 s/byte
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGradeTrackerPriorAndUpdates(t *testing.T) {
	tr := NewGradeTracker()
	// Prior alone: good is most likely.
	if tr.P("good") <= tr.P("slow") {
		t.Error("prior should favour good")
	}
	pSlowBefore := tr.P("slow")
	// A run of slow observations shifts the estimate up.
	for i := 0; i < 20; i++ {
		tr.ObserveGrade("slow")
	}
	if tr.P("slow") <= pSlowBefore {
		t.Error("slow probability did not increase with observations")
	}
	if tr.Observations() != 20 {
		t.Errorf("observations = %d", tr.Observations())
	}
	// Probabilities over the known grades stay normalised.
	total := tr.P("good") + tr.P("slow") + tr.P("unstable")
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", total)
	}
}

func TestGradeTrackerObserveInstance(t *testing.T) {
	c := cloudsim.New(3)
	tr := NewGradeTracker()
	for i := 0; i < 10; i++ {
		in, err := c.Launch(cloudsim.Small, "us-east-1a")
		if err != nil {
			t.Fatal(err)
		}
		tr.Observe(in)
	}
	if tr.Observations() != 10 {
		t.Errorf("observations = %d", tr.Observations())
	}
	if len(tr.counts) == 0 {
		t.Error("no grades recorded")
	}
}

func TestGradeTrackerConcurrent(t *testing.T) {
	tr := NewGradeTracker()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.ObserveGrade("good")
				_ = tr.P("good")
			}
		}()
	}
	wg.Wait()
	if tr.Observations() != 800 {
		t.Errorf("observations = %d, want 800", tr.Observations())
	}
}

func TestModelBankFallback(t *testing.T) {
	bank := NewModelBank()
	if _, err := bank.For("slow"); err == nil {
		t.Error("expected error for empty bank")
	}
	base := baseModel(t)
	bank.Set("good", base)
	m, err := bank.For("slow")
	if err != nil || m != base {
		t.Errorf("fallback = %v, %v", m, err)
	}
}

func TestCalibrateBankScaling(t *testing.T) {
	base := baseModel(t)
	bank, err := CalibrateBank(base, map[string]float64{"slow": 0.5, "unstable": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	goodM, err := bank.For("good")
	if err != nil {
		t.Fatal(err)
	}
	slowM, err := bank.For("slow")
	if err != nil {
		t.Fatal(err)
	}
	// A half-speed grade predicts double time...
	if got := slowM.Predict(1e9) / goodM.Predict(1e9); math.Abs(got-2) > 1e-9 {
		t.Errorf("slow/good prediction ratio = %v, want 2", got)
	}
	// ...and half the volume per deadline.
	vGood, err := bank.VolumeForDeadline("good", 100)
	if err != nil {
		t.Fatal(err)
	}
	vSlow, err := bank.VolumeForDeadline("slow", 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(vGood)/float64(vSlow)-2) > 0.01 {
		t.Errorf("volume ratio = %v, want 2", float64(vGood)/float64(vSlow))
	}
	// Invert must round-trip through the scaling.
	x, err := slowM.Invert(slowM.Predict(5e8))
	if err != nil || math.Abs(x-5e8) > 1 {
		t.Errorf("scaled invert = %v, %v", x, err)
	}
	if slowM.Name() == "" || slowM.(*scaledModel).String() == "" {
		t.Error("scaled model identity empty")
	}
	if slowM.R2() != base.R2() || slowM.Shape() != base.Shape() {
		t.Error("scaled model does not inherit R²/shape")
	}
}

func TestCalibrateBankValidation(t *testing.T) {
	if _, err := CalibrateBank(baseModel(t), map[string]float64{"slow": 0}); err == nil {
		t.Error("expected error for zero factor")
	}
}

func TestExpectedVolumeWeighting(t *testing.T) {
	base := baseModel(t)
	bank, err := CalibrateBank(base, map[string]float64{"slow": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewGradeTracker()
	grades := []string{"good", "slow"}

	// All-good observations: expected volume near the good volume.
	for i := 0; i < 100; i++ {
		tr.ObserveGrade("good")
	}
	vGood, _ := bank.VolumeForDeadline("good", 3600)
	expGood, err := bank.ExpectedVolume(tr, grades, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if expGood < 0.85*float64(vGood) {
		t.Errorf("expected volume %v too far below good volume %v", expGood, float64(vGood))
	}

	// Heavy slow observations pull it down.
	trSlow := NewGradeTracker()
	for i := 0; i < 100; i++ {
		trSlow.ObserveGrade("slow")
	}
	expSlow, err := bank.ExpectedVolume(trSlow, grades, 3600)
	if err != nil {
		t.Fatal(err)
	}
	if expSlow >= expGood {
		t.Errorf("slow-history expectation %v not below good-history %v", expSlow, expGood)
	}
}

func TestExpectedVolumeNoGrades(t *testing.T) {
	bank := NewModelBank()
	bank.Set("good", baseModel(t))
	tr := NewGradeTracker()
	if _, err := bank.ExpectedVolume(tr, nil, 3600); err == nil {
		t.Error("expected error for empty grade list")
	}
}
