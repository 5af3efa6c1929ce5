package cloudsim

import (
	"fmt"
	"testing"
	"time"
)

func runningInstance(t *testing.T, c *Cloud, zone string) *Instance {
	t.Helper()
	in, err := c.Launch(Small, zone)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitUntilRunning(in); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestVolumeCreateValidation(t *testing.T) {
	c := New(1)
	if _, err := c.CreateVolume("nowhere", 10); err == nil {
		t.Error("expected error for bad zone")
	}
	if _, err := c.CreateVolume("us-east-1a", 0); err == nil {
		t.Error("expected error for zero size")
	}
}

func TestAttachDetachRules(t *testing.T) {
	c := New(1)
	v, err := c.CreateVolume("us-east-1a", 100)
	if err != nil {
		t.Fatal(err)
	}
	inA := runningInstance(t, c, "us-east-1a")
	inB := runningInstance(t, c, "us-east-1b")

	// Wrong zone.
	if err := c.Attach(v, inB); err == nil {
		t.Error("expected error attaching across zones")
	}
	// Correct attach.
	if err := c.Attach(v, inA); err != nil {
		t.Fatal(err)
	}
	if v.attachedTo != inA {
		t.Error("volume not attached")
	}
	if len(inA.Volumes()) != 1 {
		t.Error("instance does not list volume")
	}
	// Double attach is forbidden (an EBS volume attaches to one instance).
	inA2 := runningInstance(t, c, "us-east-1a")
	if err := c.Attach(v, inA2); err == nil {
		t.Error("expected error attaching an attached volume")
	}
}

func TestAttachToPendingFails(t *testing.T) {
	c := New(1)
	v, _ := c.CreateVolume("us-east-1a", 10)
	in, _ := c.Launch(Small, "us-east-1a")
	if err := c.Attach(v, in); err == nil {
		t.Error("expected error attaching to pending instance")
	}
}

func TestAttachConsumesTime(t *testing.T) {
	c := New(1)
	v, _ := c.CreateVolume("us-east-1a", 10)
	in := runningInstance(t, c, "us-east-1a")
	before := c.Clock().Now()
	if err := c.Attach(v, in); err != nil {
		t.Fatal(err)
	}
	if c.Clock().Now()-before != VolumeAttachDelay {
		t.Errorf("attach took %v, want %v", c.Clock().Now()-before, VolumeAttachDelay)
	}
}

func TestTerminateDetachesVolumes(t *testing.T) {
	c := New(1)
	v, _ := c.CreateVolume("us-east-1a", 10)
	in := runningInstance(t, c, "us-east-1a")
	if err := c.Attach(v, in); err != nil {
		t.Fatal(err)
	}
	if err := c.Terminate(in); err != nil {
		t.Fatal(err)
	}
	if v.attachedTo != nil {
		t.Error("volume still attached after terminate")
	}
	// The volume outlives the instance (§1.1): a fresh one can attach it.
	if err := c.Attach(v, runningInstance(t, c, "us-east-1a")); err != nil {
		t.Errorf("volume unusable after instance death: %v", err)
	}
}

func TestPlacementFactorPropertiesAndRepeatability(t *testing.T) {
	c := New(1)
	v, _ := c.CreateVolume("us-east-1a", 100)
	slow := 0
	const n = 2000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("probe-%d", i)
		f := v.PlacementFactor(key)
		if f < 1.0 || f > 3.0 {
			t.Fatalf("placement factor %v out of [1,3]", f)
		}
		if f != v.PlacementFactor(key) {
			t.Fatal("placement factor not repeatable")
		}
		if f > 1.0 {
			slow++
		}
	}
	frac := float64(slow) / n
	if frac < 0.05 || frac > 0.25 {
		t.Errorf("slow-placement fraction = %v, want ≈0.12", frac)
	}
}

func TestPlacementDiffersAcrossVolumes(t *testing.T) {
	// The clone experiment: the same directory on another volume can land
	// on a different placement.
	c := New(1)
	v1, _ := c.CreateVolume("us-east-1a", 100)
	differs := false
	for i := 0; i < 50; i++ {
		clone, err := c.CreateVolume(v1.Zone, v1.SizeGB)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("dir-%d", i)
		if v1.PlacementFactor(key) != clone.PlacementFactor(key) {
			differs = true
		}
	}
	if !differs {
		t.Error("no placement variation across 50 clones")
	}
}

func TestReadMBpsLimits(t *testing.T) {
	c := New(1)
	v, _ := c.CreateVolume("us-east-1a", 100)
	in := runningInstance(t, c, "us-east-1a")
	got := v.ReadMBps(in, "k")
	maxBW := v.BaseReadMBps
	if in.Quality.SeqReadMBps < maxBW {
		maxBW = in.Quality.SeqReadMBps
	}
	if got > maxBW {
		t.Errorf("read bandwidth %v exceeds both caps (%v)", got, maxBW)
	}
	if v.ReadMBps(nil, "k") > v.BaseReadMBps {
		t.Error("nil-instance read exceeds volume bandwidth")
	}
}

func TestEstimateTransfer(t *testing.T) {
	if got := EstimateTransfer(100_000_000, 100); got != time.Second {
		t.Errorf("100 MB at 100 MB/s = %v, want 1s", got)
	}
	if got := EstimateTransfer(0, 100); got != 0 {
		t.Errorf("zero bytes = %v", got)
	}
	if got := EstimateTransfer(100, 0); got != 0 {
		t.Errorf("zero bandwidth = %v", got)
	}
}
