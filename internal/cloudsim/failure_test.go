package cloudsim

import (
	"testing"
	"time"
)

func TestFailZoneKillsInstancesAndStopsBilling(t *testing.T) {
	c := New(50)
	in := runningInstance(t, c, "us-east-1a")
	other := runningInstance(t, c, "us-east-1b")
	c.Clock().Advance(30 * time.Minute)

	if err := c.FailZone("us-east-1a"); err != nil {
		t.Fatal(err)
	}
	if in.State() != Terminated {
		t.Errorf("instance in failed zone is %v", in.State())
	}
	// Insulation: the other zone's instance keeps running.
	if other.State() != Running {
		t.Errorf("instance in healthy zone is %v", other.State())
	}
	// Billing stopped at the outage.
	before := cost(in)
	c.Clock().Advance(5 * time.Hour)
	if cost(in) != before {
		t.Error("failed instance kept billing")
	}
}

func TestFailZoneBlocksLaunchAndAttach(t *testing.T) {
	c := New(51)
	vol, err := c.CreateVolume("us-east-1a", 10)
	if err != nil {
		t.Fatal(err)
	}
	inA := runningInstance(t, c, "us-east-1a")
	if err := c.FailZone("us-east-1a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Launch(Small, "us-east-1a"); err == nil {
		t.Error("launch into failed zone succeeded")
	}
	if _, err := c.Launch(Small, "us-east-1b"); err != nil {
		t.Errorf("launch into healthy zone failed: %v", err)
	}
	// The volume persists, but the zone's instances died with it, so
	// nothing is left to attach it to.
	if err := c.Attach(vol, inA); err == nil {
		t.Error("attached a volume in a failed zone")
	}
}

func TestFailZoneDetachesVolumes(t *testing.T) {
	c := New(52)
	in := runningInstance(t, c, "us-east-1a")
	vol, _ := c.CreateVolume("us-east-1a", 10)
	if err := c.Attach(vol, in); err != nil {
		t.Fatal(err)
	}
	if err := c.FailZone("us-east-1a"); err != nil {
		t.Fatal(err)
	}
	if vol.attachedTo != nil || len(in.volumes) != 0 {
		t.Error("volume still attached after zone failure")
	}
}

func TestFailZoneValidation(t *testing.T) {
	c := New(53)
	if err := c.FailZone("mars"); err == nil {
		t.Error("expected error for unknown zone")
	}
	if err := c.FailZone("us-east-1a"); err != nil {
		t.Fatal(err)
	}
	if err := c.FailZone("us-east-1a"); err == nil {
		t.Error("expected error failing twice")
	}
	if !c.ZoneFailed("us-east-1a") || c.ZoneFailed("us-east-1b") {
		t.Error("ZoneFailed wrong")
	}
	healthy := c.HealthyZones()
	if len(healthy) != 3 {
		t.Errorf("healthy zones = %v", healthy)
	}
	for _, z := range healthy {
		if z == "us-east-1a" {
			t.Error("failed zone listed healthy")
		}
	}
}
