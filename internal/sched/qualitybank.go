package sched

import (
	"fmt"
	"sync"

	"repro/internal/cloudsim"
	"repro/internal/perfmodel"
)

// GradeTracker records the quality grades of acquired instances and
// estimates the probability that the next instance is of each grade — the
// §7 idea of "tracking the quality of newly acquired instances and
// including instance quality likelihood estimates when devising an
// execution plan". It is safe for concurrent use.
type GradeTracker struct {
	mu     sync.Mutex
	counts map[string]int
	total  int
	// prior smooths early estimates (Laplace, one pseudo-count per grade
	// seen in the prior map).
	prior map[string]int
}

// NewGradeTracker creates a tracker with the default prior reflecting the
// published quality mix (mostly good, a minority slow or unstable).
func NewGradeTracker() *GradeTracker {
	return &GradeTracker{
		counts: make(map[string]int),
		prior:  map[string]int{"good": 7, "slow": 2, "unstable": 1},
	}
}

// Observe records one acquired instance.
func (g *GradeTracker) Observe(in *cloudsim.Instance) {
	g.ObserveGrade(in.Quality.Grade())
}

// ObserveGrade records a grade directly.
func (g *GradeTracker) ObserveGrade(grade string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.counts[grade]++
	g.total++
}

// P returns the smoothed probability of drawing the given grade next.
func (g *GradeTracker) P(grade string) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	priorTotal := 0
	for _, n := range g.prior {
		priorTotal += n
	}
	num := float64(g.counts[grade] + g.prior[grade])
	den := float64(g.total + priorTotal)
	if den == 0 {
		return 0
	}
	return num / den
}

// Observations returns the number of instances observed.
func (g *GradeTracker) Observations() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.total
}

// ModelBank holds one performance model per instance grade — the §7 plan
// of using "different predictors for each instance quality level to decide
// how much data to send to meet the deadline".
type ModelBank struct {
	models map[string]perfmodel.Model
}

// NewModelBank creates an empty bank.
func NewModelBank() *ModelBank {
	return &ModelBank{models: make(map[string]perfmodel.Model)}
}

// Set installs the model for a grade.
func (b *ModelBank) Set(grade string, m perfmodel.Model) {
	b.models[grade] = m
}

// For returns the model for a grade, falling back to "good".
func (b *ModelBank) For(grade string) (perfmodel.Model, error) {
	if m, ok := b.models[grade]; ok {
		return m, nil
	}
	if m, ok := b.models["good"]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("sched: no model for grade %q and no good fallback", grade)
}

// VolumeForDeadline returns how much data to assign to an instance of the
// observed grade so it finishes by the deadline according to that grade's
// predictor.
func (b *ModelBank) VolumeForDeadline(grade string, deadlineSeconds float64) (int64, error) {
	m, err := b.For(grade)
	if err != nil {
		return 0, err
	}
	x, err := m.Invert(deadlineSeconds)
	if err != nil {
		return 0, err
	}
	if x < 0 {
		x = 0
	}
	return int64(x), nil
}

// ExpectedVolume returns the probability-weighted volume a freshly drawn
// instance can process by the deadline, under the tracker's grade
// likelihoods — the quantity a quality-aware planner provisions against.
func (b *ModelBank) ExpectedVolume(tr *GradeTracker, grades []string, deadlineSeconds float64) (float64, error) {
	var expected, pTotal float64
	for _, grade := range grades {
		p := tr.P(grade)
		if p == 0 {
			continue
		}
		v, err := b.VolumeForDeadline(grade, deadlineSeconds)
		if err != nil {
			return 0, err
		}
		expected += p * float64(v)
		pTotal += p
	}
	if pTotal == 0 {
		return 0, fmt.Errorf("sched: no grade has positive probability")
	}
	return expected / pTotal, nil
}

// CalibrateBank derives a per-grade bank from a baseline (good-instance)
// model and representative CPU factors per grade: a grade that runs at
// factor f of nominal speed gets a model predicting 1/f times the time.
// This is the cheap alternative to the paper's "lightweight tests" — reuse
// one calibration, scale by grade.
func CalibrateBank(baseline perfmodel.Model, cpuFactors map[string]float64) (*ModelBank, error) {
	bank := NewModelBank()
	for grade, f := range cpuFactors {
		if f <= 0 {
			return nil, fmt.Errorf("sched: non-positive CPU factor %v for grade %q", f, grade)
		}
		bank.Set(grade, &scaledModel{base: baseline, factor: 1 / f})
	}
	if _, ok := cpuFactors["good"]; !ok {
		bank.Set("good", baseline)
	}
	return bank, nil
}

// scaledModel multiplies a base model's predictions by a constant factor.
type scaledModel struct {
	base   perfmodel.Model
	factor float64
}

// Name implements perfmodel.Model.
func (m *scaledModel) Name() string { return m.base.Name() + "-scaled" }

// Predict implements perfmodel.Model.
func (m *scaledModel) Predict(x float64) float64 { return m.base.Predict(x) * m.factor }

// Invert implements perfmodel.Model.
func (m *scaledModel) Invert(y float64) (float64, error) { return m.base.Invert(y / m.factor) }

// R2 implements perfmodel.Model.
func (m *scaledModel) R2() float64 { return m.base.R2() }

// Shape implements perfmodel.Model.
func (m *scaledModel) Shape() perfmodel.Shape { return m.base.Shape() }

func (m *scaledModel) String() string {
	return fmt.Sprintf("%v (x%.2f)", m.base, m.factor)
}
