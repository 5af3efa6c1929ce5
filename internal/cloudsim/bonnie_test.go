package cloudsim

import (
	"context"
	"testing"
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
