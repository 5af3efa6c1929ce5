package sched

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/workload"
)

// Zone-resilient execution. The paper keeps inputs on EBS volumes, whose
// persistence makes instance replacement free of data movement (§7) — but
// an EBS volume lives in one availability zone, so a zone outage takes the
// volume with it. The resilient runner keeps a backup of the input in S3
// (region-scoped, zone-independent, §1.1) and recovers from a zone failure
// by re-staging onto a fresh volume in a healthy zone.

// ResilientReport describes a zone-failover task execution.
type ResilientReport struct {
	TaskReport
	// ZoneFailovers counts recoveries from zone outages.
	ZoneFailovers int
	// Zones lists the zones used, in order.
	Zones []string
	// RestageSeconds is the total time spent re-staging data from S3.
	RestageSeconds float64
}

// RunTaskResilient executes items chunk by chunk on an instance in the
// preferred zone, with the input backed up under s3Key. After each chunk it
// invokes OnCheckpoint (tests inject failures there) and inspects the
// instance: if its zone has failed, it recovers — healthy zone, new
// volume, re-stage from S3, new instance — and resumes from the next
// unprocessed chunk. Slow-instance replacement (the Monitor's policy)
// still applies within a zone.
func (mo *Monitor) RunTaskResilient(ctx context.Context, items []workload.Item, preferredZone, s3Key string, onCheckpoint func(chunk int)) (*ResilientReport, error) {
	if mo.Chunks < 1 {
		return nil, fmt.Errorf("sched: Chunks must be ≥ 1, got %d", mo.Chunks)
	}
	totalBytes := workload.TotalBytes(items)
	s3 := mo.Cloud.S3()
	if err := s3.Put(s3Key, minInt64(totalBytes, cloudsim.MaxObjectBytes)); err != nil {
		return nil, fmt.Errorf("sched: backing up input: %w", err)
	}
	report := &ResilientReport{}
	zone := preferredZone

	setup := func() (*cloudsim.Instance, *cloudsim.Volume, error) {
		if mo.Cloud.ZoneFailed(zone) {
			healthy := mo.Cloud.HealthyZones()
			if len(healthy) == 0 {
				return nil, nil, fmt.Errorf("sched: no healthy zones remain")
			}
			zone = healthy[0]
		}
		in, err := mo.Cloud.Launch(cloudsim.Small, zone)
		if err != nil {
			return nil, nil, err
		}
		if err := mo.Cloud.WaitUntilRunning(in); err != nil {
			return nil, nil, err
		}
		report.Grades = append(report.Grades, in.Quality.Grade())
		report.Zones = append(report.Zones, zone)
		sizeGB := int(totalBytes/1_000_000_000) + 1
		vol, err := mo.Cloud.CreateVolume(zone, sizeGB)
		if err != nil {
			return nil, nil, err
		}
		if err := mo.Cloud.Attach(vol, in); err != nil {
			return nil, nil, err
		}
		// Re-stage the input from S3 onto the fresh volume.
		fetch, err := s3.FetchTime(s3Key)
		if err != nil {
			return nil, nil, err
		}
		if err := mo.Cloud.Clock().Advance(fetch); err != nil {
			return nil, nil, err
		}
		report.RestageSeconds += fetch.Seconds()
		report.ElapsedS += fetch.Seconds()
		return in, vol, nil
	}

	in, vol, err := setup()
	if err != nil {
		return nil, err
	}
	var instElapsed float64
	chunks := splitChunks(items, mo.Chunks)
	for ci := 0; ci < len(chunks); {
		d, err := workload.EstimateCtx(ctx, in, mo.App, chunks[ci], vol, s3Key)
		if err != nil {
			return nil, err
		}
		if err := mo.Cloud.Clock().Advance(d); err != nil {
			return nil, err
		}
		report.ElapsedS += d.Seconds()
		instElapsed += d.Seconds()
		ci++
		if onCheckpoint != nil {
			onCheckpoint(ci)
		}
		if ci >= len(chunks) {
			break
		}
		// Outage check: the zone may have died under us. Completed chunks
		// stand — grep/tagging results stream back to the caller rather
		// than living on the dead volume — so recovery resumes at the next
		// unprocessed chunk.
		if in.State() != cloudsim.Running {
			report.BilledHours += billHours(instElapsed)
			instElapsed = 0
			report.ZoneFailovers++
			in, vol, err = setup()
			if err != nil {
				return nil, err
			}
		}
	}
	report.BilledHours += billHours(instElapsed)
	report.CostUSD = report.BilledHours * cloudsim.Small.HourlyRate
	return report, nil
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// MeanTimeToRecover estimates the wall-clock cost of one zone failover:
// boot (midpoint), volume create + attach, and the S3 re-stage of the
// given volume at nominal bandwidth.
func MeanTimeToRecover(bytes int64) time.Duration {
	boot := (cloudsim.MinBootDelay + cloudsim.MaxBootDelay) / 2
	stage := cloudsim.EstimateTransfer(bytes, 40)
	return boot + cloudsim.VolumeAttachDelay + stage
}
