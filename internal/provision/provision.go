// Package provision implements the paper's §5 static provisioning: given a
// fitted performance model, a total data volume, a deadline D and the
// hour-granular flat pricing of EC2, determine the number of instances to
// request and the assignment of data to each so the deadline is met at
// minimum cost. It also implements the §5.2 improvements — uniform bins,
// the residual-based adjusted deadline, and the combined "good general
// strategy" — plus the §5.1 EBS-volume layout and the Fig. 2
// convexity-driven strategy selection.
package provision

import (
	"fmt"
	"math"

	"repro/internal/binpack"
	"repro/internal/perfmodel"
)

// Cost evaluates the paper's pricing function f(d) for predicted total
// compute time P (hours) under deadline d (hours) at flat hourly rate r:
//
//	f(d) = r·⌈P⌉      if d ≥ 1  (pack whole hours into instances)
//	f(d) = r·⌈P/d⌉    if d < 1  (each instance runs d but bills a full hour)
func Cost(predictedHours, deadlineHours, rate float64) (float64, error) {
	if predictedHours < 0 || deadlineHours <= 0 || rate < 0 {
		return 0, fmt.Errorf("provision: invalid cost inputs P=%v d=%v r=%v", predictedHours, deadlineHours, rate)
	}
	if predictedHours == 0 {
		return 0, nil
	}
	if deadlineHours >= 1 {
		return rate * math.Ceil(predictedHours), nil
	}
	return rate * math.Ceil(predictedHours/deadlineHours), nil
}

// Strategy selects how data is distributed across instances.
type Strategy int

// Strategies.
const (
	// FirstFitOriginal packs files in their original order into bins of
	// capacity f⁻¹(D) — the paper's default for POS, which deliberately
	// avoids sorting so large files do not cluster in early bins (§5.2).
	FirstFitOriginal Strategy = iota
	// UniformBins distributes the data approximately evenly over the
	// minimum instance count — the Fig. 8(b) improvement that reduces the
	// chance of missing the deadline at the same cost.
	UniformBins
)

func (s Strategy) String() string {
	if s == UniformBins {
		return "uniform-bins"
	}
	return "first-fit-original-order"
}

// Plan is a static execution plan.
type Plan struct {
	// Deadline is the target deadline in seconds (after any adjustment).
	Deadline float64
	// RequestedDeadline is the user's original deadline in seconds.
	RequestedDeadline float64
	// PerInstanceCapacity is f⁻¹(Deadline) in bytes.
	PerInstanceCapacity int64
	// Instances is the number of instances to request (= len(Bins)).
	Instances int
	// MinInstances is the paper's ⌈V/⌊x₀⌋⌉ lower bound.
	MinInstances int
	// Bins is the per-instance data assignment.
	Bins []*binpack.Bin
	// Predicted holds the model's predicted seconds per instance.
	Predicted []float64
	// EstimatedCost assumes every instance bills ⌈deadline hours⌉.
	EstimatedCost float64
	// Strategy records how the bins were built.
	Strategy Strategy
	// Model is the performance model the plan is based on.
	Model perfmodel.Model
}

// TotalVolume returns the planned data volume in bytes.
func (p *Plan) TotalVolume() int64 {
	var v int64
	for _, b := range p.Bins {
		v += b.Used
	}
	return v
}

// InstanceHours returns the plan's budgeted instance-hours: each instance
// bills the ceiling of the deadline in hours (the paper reports plans in
// instance-hours, e.g. 27 for Fig. 8(a)).
func (p *Plan) InstanceHours() float64 {
	return float64(p.Instances) * math.Ceil(p.Deadline/3600)
}

// Planner builds plans from a model and pricing.
type Planner struct {
	Model perfmodel.Model
	// Rate is the flat hourly rate (the paper's $0.085 for small
	// instances).
	Rate float64
}

// NewPlanner creates a planner at the paper's small-instance rate.
func NewPlanner(m perfmodel.Model) *Planner {
	return &Planner{Model: m, Rate: 0.085}
}

// PlanDeadline builds a plan that processes items within deadlineSeconds
// using the given distribution strategy.
func (pl *Planner) PlanDeadline(items []binpack.Item, deadlineSeconds float64, strategy Strategy) (*Plan, error) {
	return pl.plan(items, deadlineSeconds, deadlineSeconds, strategy)
}

func (pl *Planner) plan(items []binpack.Item, deadlineSeconds, requestedSeconds float64, strategy Strategy) (*Plan, error) {
	if pl.Model == nil {
		return nil, fmt.Errorf("provision: planner has no model")
	}
	if deadlineSeconds <= 0 {
		return nil, fmt.Errorf("provision: deadline must be positive, got %v", deadlineSeconds)
	}
	if !(pl.Rate >= 0) {
		return nil, fmt.Errorf("provision: hourly rate must be non-negative, got %v", pl.Rate)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("provision: no items to plan")
	}
	x0f, err := pl.Model.Invert(deadlineSeconds)
	if err != nil {
		return nil, fmt.Errorf("provision: inverting model at D=%v: %w", deadlineSeconds, err)
	}
	if x0f < 1 {
		return nil, fmt.Errorf("provision: deadline %vs admits no data (f⁻¹ = %v bytes)", deadlineSeconds, x0f)
	}
	x0 := int64(math.Floor(x0f))
	volume := binpack.TotalSize(items)
	minInstances := int(math.Ceil(float64(volume) / float64(x0)))

	var bins []*binpack.Bin
	switch strategy {
	case FirstFitOriginal:
		bins, err = binpack.FirstFit(items, x0)
	case UniformBins:
		bins, err = binpack.LeastLoaded(items, minInstances)
	default:
		return nil, fmt.Errorf("provision: unknown strategy %d", strategy)
	}
	if err != nil {
		return nil, err
	}
	if err := binpack.Verify(items, bins); err != nil {
		return nil, fmt.Errorf("provision: packing invariant violated: %w", err)
	}
	p := &Plan{
		Deadline:            deadlineSeconds,
		RequestedDeadline:   requestedSeconds,
		PerInstanceCapacity: x0,
		Instances:           len(bins),
		MinInstances:        minInstances,
		Bins:                bins,
		Strategy:            strategy,
		Model:               pl.Model,
	}
	for _, b := range bins {
		p.Predicted = append(p.Predicted, pl.Model.Predict(float64(b.Used)))
	}
	p.EstimatedCost = float64(p.Instances) * math.Ceil(requestedSeconds/3600) * pl.Rate
	return p, nil
}

// PlanAdjusted implements the end-of-§5.2 general strategy. For deadline D:
//  1. compute the minimum instances i = ⌈V / f⁻¹(D)⌉;
//  2. distributing uniformly gives each instance V/i bytes, finishing at
//     D₁ = f(V/i);
//  3. if the adjusted deadline D/(1+a) ≥ D₁, the uniform distribution
//     already carries the required safety margin — use it;
//  4. otherwise schedule for the adjusted deadline D/(1+a).
func (pl *Planner) PlanAdjusted(items []binpack.Item, deadlineSeconds float64, adj perfmodel.Adjustment) (*Plan, error) {
	if pl.Model == nil {
		return nil, fmt.Errorf("provision: planner has no model")
	}
	base, err := pl.PlanDeadline(items, deadlineSeconds, UniformBins)
	if err != nil {
		return nil, err
	}
	volume := binpack.TotalSize(items)
	vd1 := float64(volume) / float64(base.MinInstances)
	d1 := pl.Model.Predict(vd1)
	adjusted := adj.AdjustDeadline(deadlineSeconds)
	if adjusted >= d1 {
		base.RequestedDeadline = deadlineSeconds
		return base, nil
	}
	p, err := pl.plan(items, adjusted, deadlineSeconds, UniformBins)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// StrategyForShape returns the Fig. 2 provisioning guidance for a model's
// convexity: convex (f”>0) → process data in fresh instances each hour
// because small volumes are relatively cheaper; concave (f”<0) → pack as
// much data as possible up to ⌈D⌉ in each instance.
func StrategyForShape(s perfmodel.Shape) string {
	switch s {
	case perfmodel.ShapeConvex:
		return "start new instances: each one-hour slot processes more data at small volumes"
	case perfmodel.ShapeConcave:
		return "pack data up to the deadline: large volumes are relatively cheaper per byte"
	default:
		return "indifferent: one hour of computation per instance is optimal"
	}
}

// EBSLayout is the §5.1 arrangement of data over EBS volumes: the data is
// pre-split into equal per-volume chunks of V0 bytes; meeting a deadline D
// means attaching ⌊f⁻¹(D)/V0⌋ volumes to each instance.
type EBSLayout struct {
	VolumeCount        int   // total EBS volumes holding the data
	PerVolume          int64 // V0: bytes per volume
	VolumesPerInstance int   // volumes attached to each instance
	Instances          int
	PerInstanceBytes   int64
}

// PlanEBS computes the EBS attachment layout for total volume V split
// evenly over volumeCount EBS volumes under deadline D. It reproduces the
// paper's constraint that the per-volume unit V0 sets the coarseness of
// attainable deadlines: if V0 exceeds f⁻¹(D), the deadline cannot be met
// without re-splitting the data.
func (pl *Planner) PlanEBS(totalVolume int64, volumeCount int, deadlineSeconds float64) (*EBSLayout, error) {
	if totalVolume <= 0 || volumeCount <= 0 {
		return nil, fmt.Errorf("provision: invalid EBS inputs V=%d n=%d", totalVolume, volumeCount)
	}
	vd, err := pl.Model.Invert(deadlineSeconds)
	if err != nil {
		return nil, err
	}
	v0 := totalVolume / int64(volumeCount)
	if v0 <= 0 {
		return nil, fmt.Errorf("provision: volume count %d exceeds data volume %d", volumeCount, totalVolume)
	}
	if float64(v0) > vd {
		return nil, fmt.Errorf("provision: per-volume unit %d bytes exceeds f⁻¹(D)=%.0f; reorganise the data to lower V0", v0, vd)
	}
	perInstance := int(vd / float64(v0)) // ⌊VD/V0⌋ volumes per instance
	instances := int(math.Ceil(float64(totalVolume) / (float64(perInstance) * float64(v0))))
	return &EBSLayout{
		VolumeCount:        volumeCount,
		PerVolume:          v0,
		VolumesPerInstance: perInstance,
		Instances:          instances,
		PerInstanceBytes:   int64(perInstance) * v0,
	}, nil
}
