package cloudsim

import (
	"math"
	"testing"
	"time"
)

// ReadyAt returns when the instance enters (or entered) the running state.
func (in *Instance) ReadyAt() time.Duration { return in.runningAt }

// Instances returns all instances ever launched, in launch order.
func (c *Cloud) Instances() []*Instance { return append([]*Instance(nil), c.insts...) }

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Error("clock not zero at start")
	}
	if err := c.Advance(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 5*time.Second {
		t.Errorf("now = %v", c.Now())
	}
	if err := c.Advance(-time.Second); err == nil {
		t.Error("expected error for negative advance")
	}
	c.AdvanceTo(3 * time.Second) // past: no-op
	if c.Now() != 5*time.Second {
		t.Error("clock went backwards")
	}
	c.AdvanceTo(10 * time.Second)
	if c.Now() != 10*time.Second {
		t.Errorf("now = %v", c.Now())
	}
}

func TestLaunchLifecycle(t *testing.T) {
	c := New(1)
	in, err := c.Launch(Small, "us-east-1a")
	if err != nil {
		t.Fatal(err)
	}
	if in.State() != Pending {
		t.Errorf("state = %v, want pending", in.State())
	}
	if err := c.WaitUntilRunning(in); err != nil {
		t.Fatal(err)
	}
	if in.State() != Running {
		t.Errorf("state = %v, want running", in.State())
	}
	boot := in.ReadyAt()
	if boot < MinBootDelay || boot > MaxBootDelay {
		t.Errorf("boot delay = %v outside [%v, %v]", boot, MinBootDelay, MaxBootDelay)
	}
	if err := c.Terminate(in); err != nil {
		t.Fatal(err)
	}
	if in.State() != ShuttingDown {
		t.Errorf("state = %v, want shutting-down", in.State())
	}
	c.Clock().Advance(ShutdownDelay)
	if in.State() != Terminated {
		t.Errorf("state = %v, want terminated", in.State())
	}
	if err := c.Terminate(in); err == nil {
		t.Error("expected error terminating twice")
	}
}

func TestLaunchValidation(t *testing.T) {
	c := New(1)
	if _, err := c.Launch(Small, "mars-1a"); err == nil {
		t.Error("expected error for unknown zone")
	}
	if _, err := c.Launch(InstanceType{}, "us-east-1a"); err == nil {
		t.Error("expected error for invalid type")
	}
}

func TestBillingPartialHourRoundsUp(t *testing.T) {
	c := New(2)
	in, _ := c.Launch(Small, "us-east-1a")
	c.WaitUntilRunning(in)
	c.Clock().Advance(10 * time.Minute)
	c.Terminate(in)
	if got := cost(in); got != Small.HourlyRate {
		t.Errorf("cost = %v, want one full hour %v", got, Small.HourlyRate)
	}
	// Pending time is free: billed duration is exactly 10 minutes.
	if got := in.BilledDuration(); got != 10*time.Minute {
		t.Errorf("billed = %v, want 10m", got)
	}
}

func TestBillingMultipleHours(t *testing.T) {
	c := New(2)
	in, _ := c.Launch(Small, "us-east-1a")
	c.WaitUntilRunning(in)
	c.Clock().Advance(2*time.Hour + time.Minute)
	c.Terminate(in)
	if got := cost(in); math.Abs(got-3*Small.HourlyRate) > 1e-12 {
		t.Errorf("cost = %v, want 3 hours", got)
	}
	// Time after terminate accrues nothing.
	c.Clock().Advance(5 * time.Hour)
	if got := cost(in); math.Abs(got-3*Small.HourlyRate) > 1e-12 {
		t.Errorf("cost after idle = %v, want unchanged", got)
	}
}

func TestBillHours(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want float64
	}{
		{0, 0},
		{-time.Minute, 0},
		{time.Second, 1},
		{time.Hour, 1},
		{time.Hour + time.Nanosecond, 2},
		{125 * time.Minute, 3},
	}
	for _, c := range cases {
		if got := BillHours(c.d); got != c.want {
			t.Errorf("BillHours(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestPendingInstanceNeverBilled(t *testing.T) {
	c := New(3)
	in, _ := c.Launch(Small, "us-east-1a")
	// Terminate while still pending.
	c.Terminate(in)
	if got := cost(in); got != 0 {
		t.Errorf("pending-only instance cost = %v, want 0", got)
	}
}

func TestInstanceQualityDeterministic(t *testing.T) {
	a := New(77)
	b := New(77)
	for i := 0; i < 20; i++ {
		ia, _ := a.Launch(Small, "us-east-1a")
		ib, _ := b.Launch(Small, "us-east-1a")
		if ia.Quality != ib.Quality {
			t.Fatalf("instance %d quality differs: %+v vs %+v", i, ia.Quality, ib.Quality)
		}
	}
}

func TestQualityMixMatchesDistribution(t *testing.T) {
	c := New(5)
	counts := map[string]int{}
	const n = 2000
	for i := 0; i < n; i++ {
		in, err := c.Launch(Small, "us-east-1a")
		if err != nil {
			t.Fatal(err)
		}
		counts[in.Quality.Grade()]++
	}
	goodFrac := float64(counts["good"]) / n
	if goodFrac < 0.65 || goodFrac > 0.85 {
		t.Errorf("good fraction = %v, want ≈0.75", goodFrac)
	}
	if counts["slow"] == 0 || counts["unstable"] == 0 {
		t.Errorf("missing quality grades: %v", counts)
	}
	// The factor-of-4 CPU spread must be realised somewhere.
	minCPU := 1.0
	for _, in := range c.Instances() {
		if in.Quality.CPUFactor < minCPU {
			minCPU = in.Quality.CPUFactor
		}
	}
	if minCPU > 0.5 {
		t.Errorf("slowest CPU factor = %v, want < 0.5 (factor-4 spread)", minCPU)
	}
}

// cost is an instance's accrued charge: the hourly rate times the number of
// full or partial running hours (§1.1: "$0.1 × ⌈h⌉").
func cost(in *Instance) float64 {
	return BillHours(in.BilledDuration()) * in.Type.HourlyRate
}

// instanceHours sums billable hours across all on-demand instances.
func instanceHours(c *Cloud) float64 {
	var total float64
	for _, in := range c.Instances() {
		total += BillHours(in.BilledDuration())
	}
	return total
}

// totalCost sums accrued cost over all on-demand instances.
func totalCost(c *Cloud) float64 {
	var total float64
	for _, in := range c.Instances() {
		total += cost(in)
	}
	return total
}

func TestTotalCostAndInstanceHours(t *testing.T) {
	c := New(6)
	for i := 0; i < 3; i++ {
		in, _ := c.Launch(Small, "us-east-1a")
		c.WaitUntilRunning(in)
	}
	c.Clock().Advance(90 * time.Minute)
	for _, in := range c.Instances() {
		c.Terminate(in)
	}
	if got := instanceHours(c); got != 6 {
		t.Errorf("instance hours = %v, want 6 (3 instances x 2 billed hours)", got)
	}
	want := 6 * Small.HourlyRate
	if got := totalCost(c); math.Abs(got-want) > 1e-9 {
		t.Errorf("total cost = %v, want %v", got, want)
	}
}

func TestInstancesOrdered(t *testing.T) {
	c := New(6)
	a, _ := c.Launch(Small, "us-east-1a")
	b, _ := c.Launch(Small, "us-east-1b")
	list := c.Instances()
	if len(list) != 2 || list[0] != a || list[1] != b {
		t.Errorf("instances out of order")
	}
}

func TestLaunchNominal(t *testing.T) {
	c := New(99)
	in, err := c.LaunchNominal(Small, "us-east-1a")
	if err != nil {
		t.Fatal(err)
	}
	if in.Quality != NominalQuality {
		t.Errorf("quality = %+v, want nominal", in.Quality)
	}
	if in.Quality.Grade() != "good" {
		t.Errorf("nominal grade = %s", in.Quality.Grade())
	}
	// Lifecycle still applies: pending first, billing rules unchanged.
	if in.State() != Pending {
		t.Errorf("state = %v", in.State())
	}
	if err := c.WaitUntilRunning(in); err != nil {
		t.Fatal(err)
	}
	c.Clock().Advance(30 * time.Minute)
	c.Terminate(in)
	if cost(in) != Small.HourlyRate {
		t.Errorf("cost = %v", cost(in))
	}
	if _, err := c.LaunchNominal(Small, "nowhere"); err == nil {
		t.Error("expected zone error")
	}
}

func TestSetupNoiseWiderThanRunNoise(t *testing.T) {
	c := New(100)
	in, _ := c.LaunchNominal(Small, "us-east-1a")
	var setup, run []float64
	for i := 0; i < 500; i++ {
		setup = append(setup, in.SetupNoiseFactor())
		run = append(run, in.NoiseFactor())
	}
	sd := func(xs []float64) float64 {
		var mean, ss float64
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		return ss / float64(len(xs)-1)
	}
	if sd(setup) <= 4*sd(run) {
		t.Errorf("setup noise variance %v not much wider than run noise %v", sd(setup), sd(run))
	}
	for _, f := range append(setup, run...) {
		if f < 0.1 {
			t.Fatalf("noise factor %v below floor", f)
		}
	}
}
