package cloudsim

import (
	"context"
	"testing"
	"time"
)

func TestRunBonnieReflectsQuality(t *testing.T) {
	c := New(9)
	in := runningInstance(t, c, "us-east-1a")
	res, err := c.RunBonnie(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("benchmark consumed no time")
	}
	// Measured speed within noise of the true quality for stable instances.
	if in.Quality.Stable {
		rel := res.BlockReadMBps/in.Quality.SeqReadMBps - 1
		if rel < -0.2 || rel > 0.2 {
			t.Errorf("measured read %v far from true %v", res.BlockReadMBps, in.Quality.SeqReadMBps)
		}
	}
}

func TestRunBonnieRequiresRunning(t *testing.T) {
	c := New(9)
	in, _ := c.Launch(Small, "us-east-1a")
	if _, err := c.RunBonnie(in); err == nil {
		t.Error("expected error benchmarking a pending instance")
	}
}

func TestAcquireQualified(t *testing.T) {
	c := New(10)
	in, attempts, err := c.AcquireQualifiedCtx(context.Background(), Small, "us-east-1a", 50)
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 1 {
		t.Errorf("attempts = %d", attempts)
	}
	if in.State() != Running {
		t.Errorf("qualified instance state = %v", in.State())
	}
	// The returned instance must genuinely clear the bar.
	if in.Quality.SeqReadMBps <= QualificationThresholdMBps*0.85 {
		t.Errorf("qualified instance true read speed %v too low", in.Quality.SeqReadMBps)
	}
	// Rejected instances must all be terminated.
	for _, other := range c.Instances() {
		if other != in && !other.terminated {
			t.Errorf("rejected instance %s left running", other.ID)
		}
	}
}

func TestAcquireQualifiedEventuallySucceedsAcrossSeeds(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := New(seed)
		if _, _, err := c.AcquireQualifiedCtx(context.Background(), Small, "us-east-1a", 100); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestS3PutGetDelete(t *testing.T) {
	c := New(3)
	s3 := c.S3()
	if err := s3.Put("obj", 1000); err != nil {
		t.Fatal(err)
	}
	if sz, err := s3.Size("obj"); err != nil || sz != 1000 {
		t.Errorf("size = %d, %v", sz, err)
	}
	if _, err := s3.Size("missing"); err == nil {
		t.Error("expected error for missing object")
	}
	if err := s3.Put("obj", 2000); err != nil {
		t.Fatal(err)
	}
	if sz, _ := s3.Size("obj"); sz != 2000 || len(s3.objects) != 1 {
		t.Errorf("overwrite: size %d, %d objects", sz, len(s3.objects))
	}
}

func TestS3Validation(t *testing.T) {
	c := New(3)
	s3 := c.S3()
	if err := s3.Put("", 1); err == nil {
		t.Error("expected error for empty key")
	}
	if err := s3.Put("x", -1); err == nil {
		t.Error("expected error for negative size")
	}
	if err := s3.Put("big", MaxObjectBytes+1); err == nil {
		t.Error("expected error beyond 5 GB cap")
	}
	if err := s3.Put("edge", MaxObjectBytes); err != nil {
		t.Errorf("5 GB object rejected: %v", err)
	}
}

func TestS3FetchTimeVariable(t *testing.T) {
	c := New(3)
	s3 := c.S3()
	_ = s3.Put("obj", 100_000_000)
	var times []time.Duration
	for i := 0; i < 20; i++ {
		d, err := s3.FetchTime("obj")
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatal("non-positive fetch time")
		}
		times = append(times, d)
	}
	allSame := true
	for _, d := range times[1:] {
		if d != times[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("S3 latency shows no variability")
	}
	if _, err := s3.FetchTime("missing"); err == nil {
		t.Error("expected error for missing object")
	}
}

func TestSpotPriceDeterministicAndBounded(t *testing.T) {
	c := New(4)
	m := c.Spot()
	for h := 0; h < 100; h++ {
		t1 := time.Duration(h) * time.Hour
		p := m.Price(t1)
		if p != m.Price(t1) {
			t.Fatal("spot price not deterministic")
		}
		if p <= 0 || p > Small.HourlyRate*2 {
			t.Errorf("price %v at hour %d implausible", p, h)
		}
	}
	// Prices within an hour are constant.
	if m.Price(30*time.Minute) != m.Price(59*time.Minute) {
		t.Error("price varies within an hour")
	}
}

// activeHours counts the whole market hours, from creation to now (or
// cancellation), during which the request was active.
func activeHours(r *SpotRequest) int {
	hours := 0
	for h := hourIndex(r.CreatedAt); h <= hourIndex(r.end()); h++ {
		if t := time.Duration(h) * time.Hour; t >= r.CreatedAt && t < r.end() && r.ActiveAt(t) {
			hours++
		}
	}
	return hours
}

func TestSpotRequestLifecycle(t *testing.T) {
	c := New(4)
	m := c.Spot()
	if _, err := m.RequestSpot(0); err == nil {
		t.Error("expected error for zero bid")
	}
	// A bid above any possible price is always active.
	req, err := m.RequestSpot(10)
	if err != nil {
		t.Fatal(err)
	}
	c.Clock().Advance(5 * time.Hour)
	if got := activeHours(req); got != 5 {
		t.Errorf("active hours = %d, want 5", got)
	}
	if req.Cost() <= 0 {
		t.Error("no cost accrued")
	}
	// Charged at market price, so cheaper than on-demand for the same hours.
	if req.Cost() >= 5*Small.HourlyRate {
		t.Errorf("spot cost %v not below on-demand %v", req.Cost(), 5*Small.HourlyRate)
	}
	req.Cancel()
	costAtCancel := req.Cost()
	c.Clock().Advance(10 * time.Hour)
	if req.Cost() != costAtCancel {
		t.Error("cost accrued after cancel")
	}
}

func TestSpotLowBidInterrupted(t *testing.T) {
	c := New(4)
	m := c.Spot()
	// Bid at the base price: the daily swing must push price above it for
	// part of the day.
	req, _ := m.RequestSpot(m.Base)
	c.Clock().Advance(48 * time.Hour)
	active := activeHours(req)
	if active == 0 || active == 48 {
		t.Errorf("active hours = %d, want partial coverage of 48", active)
	}
}
