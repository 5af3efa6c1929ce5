package sched

import (
	"context"
	"testing"

	"repro/internal/workload"
)

func TestRunTaskResilientNoFailure(t *testing.T) {
	c := goodCloud(70)
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	rep, err := mo.RunTaskResilient(context.Background(), taskItems(20, 100_000_000), "us-east-1a", "backup-a", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ZoneFailovers != 0 {
		t.Errorf("failovers = %d on a healthy cloud", rep.ZoneFailovers)
	}
	if len(rep.Zones) != 1 || rep.Zones[0] != "us-east-1a" {
		t.Errorf("zones = %v", rep.Zones)
	}
	if rep.RestageSeconds <= 0 {
		t.Error("initial staging from S3 took no time")
	}
	if rep.BilledHours < 1 || rep.CostUSD <= 0 {
		t.Errorf("billing empty: %+v", rep.TaskReport)
	}
}

func TestRunTaskResilientSurvivesZoneOutage(t *testing.T) {
	c := goodCloud(71)
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	mo.Chunks = 4
	failed := false
	rep, err := mo.RunTaskResilient(context.Background(), taskItems(20, 100_000_000), "us-east-1a", "backup-b",
		func(chunk int) {
			if chunk == 2 && !failed {
				failed = true
				if err := c.FailZone("us-east-1a"); err != nil {
					t.Fatal(err)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ZoneFailovers != 1 {
		t.Fatalf("failovers = %d, want 1", rep.ZoneFailovers)
	}
	if len(rep.Zones) != 2 || rep.Zones[1] == "us-east-1a" {
		t.Errorf("zones = %v; recovery must move zones", rep.Zones)
	}
	// Recovery re-staged from S3 a second time.
	baseline, err := NewMonitor(goodCloud(71), workload.NewGrep(), grepModel(t), "us-east-1a").
		RunTaskResilient(context.Background(), taskItems(20, 100_000_000), "us-east-1a", "backup-b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestageSeconds <= baseline.RestageSeconds {
		t.Error("failover did not pay a re-staging cost")
	}
	if rep.ElapsedS <= baseline.ElapsedS {
		t.Error("failover run not slower than the undisturbed run")
	}
}

func TestRunTaskResilientAllZonesDown(t *testing.T) {
	c := goodCloud(72)
	for _, z := range c.Region().Zones {
		if err := c.FailZone(z); err != nil {
			t.Fatal(err)
		}
	}
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	if _, err := mo.RunTaskResilient(context.Background(), taskItems(4, 1000), "us-east-1a", "backup-c", nil); err == nil {
		t.Error("expected error with every zone failed")
	}
}

func TestRunTaskResilientValidation(t *testing.T) {
	c := goodCloud(73)
	mo := NewMonitor(c, workload.NewGrep(), grepModel(t), "us-east-1a")
	mo.Chunks = 0
	if _, err := mo.RunTaskResilient(context.Background(), taskItems(1, 1), "us-east-1a", "k", nil); err == nil {
		t.Error("expected error for zero chunks")
	}
}

func TestMeanTimeToRecover(t *testing.T) {
	small := MeanTimeToRecover(1_000_000)
	big := MeanTimeToRecover(100_000_000_000)
	if big <= small {
		t.Error("larger volumes must take longer to recover")
	}
	if small <= 0 {
		t.Error("non-positive recovery time")
	}
}
