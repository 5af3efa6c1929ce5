// Package sched implements the paper's dynamic-scheduling extensions. The
// published system is a static planner; §3.1 and §7 sketch the dynamic
// pieces this package builds out: the switch-or-stay analysis for a slow
// instance, a monitor that replaces under-performing instances mid-run by
// detaching and re-attaching their EBS volume (no data transfer), and
// spot-market execution plans for deadline-insensitive work.
package sched

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// SwitchDecision is the §3.1 back-of-envelope: an I/O-bound application on
// a slow instance can either let it run another hour or switch to a fresh
// (likely fast) instance, paying a startup + EBS-attach penalty.
type SwitchDecision struct {
	// StayGB is the data processed in the horizon if we stay.
	StayGB float64
	// SwitchGB is the data processed if the replacement is fast.
	SwitchGB float64
	// SwitchSlowGB is the downside if the replacement is slow too.
	SwitchSlowGB float64
	// Recommend is true when switching wins in expectation.
	Recommend bool
	// ExpectedGainGB is the probability-weighted gain from switching.
	ExpectedGainGB float64
}

// AnalyzeSwitch reproduces the paper's example: at 60 MB/s a slow instance
// processes ≈210 GB in the next hour; a fast replacement (even after a
// 3-minute penalty) processes ≈57 GB more; a slow replacement loses
// ≈10 GB. pFast is the probability the replacement is fast.
func AnalyzeSwitch(slowMBps, fastMBps float64, penalty, horizon time.Duration, pFast float64) (SwitchDecision, error) {
	if slowMBps <= 0 || fastMBps <= 0 {
		return SwitchDecision{}, fmt.Errorf("sched: speeds must be positive (%v, %v)", slowMBps, fastMBps)
	}
	if penalty < 0 || horizon <= 0 {
		return SwitchDecision{}, fmt.Errorf("sched: invalid penalty %v or horizon %v", penalty, horizon)
	}
	if pFast < 0 || pFast > 1 {
		return SwitchDecision{}, fmt.Errorf("sched: pFast %v out of [0,1]", pFast)
	}
	gb := func(mbps float64, d time.Duration) float64 {
		return mbps * d.Seconds() / 1000
	}
	work := horizon - penalty
	if work < 0 {
		work = 0
	}
	d := SwitchDecision{
		StayGB:       gb(slowMBps, horizon),
		SwitchGB:     gb(fastMBps, work),
		SwitchSlowGB: gb(slowMBps, work),
	}
	d.ExpectedGainGB = pFast*(d.SwitchGB-d.StayGB) + (1-pFast)*(d.SwitchSlowGB-d.StayGB)
	d.Recommend = d.ExpectedGainGB > 0
	return d, nil
}

// ReplacePolicy chooses when a slow instance is replaced (§7: "terminate
// poor instances right away or ... let them run up to close to a full hour
// and then reassign").
type ReplacePolicy int

// Policies.
const (
	// ReplaceNow terminates immediately on detection.
	ReplaceNow ReplacePolicy = iota
	// ReplaceAtHour lets the paid hour finish before switching.
	ReplaceAtHour
	// NeverReplace disables monitoring (the static baseline).
	NeverReplace
)

func (p ReplacePolicy) String() string {
	switch p {
	case ReplaceNow:
		return "replace-now"
	case ReplaceAtHour:
		return "replace-at-hour"
	default:
		return "never-replace"
	}
}

// Monitor supervises instances executing chunked work and replaces the
// ones whose observed progress falls behind the model's prediction.
type Monitor struct {
	Cloud *cloudsim.Cloud
	App   workload.App
	Model perfmodel.Model
	Zone  string
	// SlowRatio is the observed/predicted threshold that marks an instance
	// slow (e.g. 1.5 = 50% behind schedule).
	SlowRatio float64
	// Policy picks the replacement moment.
	Policy ReplacePolicy
	// Chunks is how many checkpoints the work is split into.
	Chunks int
}

// NewMonitor returns a monitor with sensible defaults.
func NewMonitor(c *cloudsim.Cloud, app workload.App, m perfmodel.Model, zone string) *Monitor {
	return &Monitor{
		Cloud:     c,
		App:       app,
		Model:     m,
		Zone:      zone,
		SlowRatio: 1.5,
		Policy:    ReplaceNow,
		Chunks:    4,
	}
}

// TaskReport describes one monitored task execution.
type TaskReport struct {
	Replacements int
	// ElapsedS is wall-clock task time including replacement penalties.
	ElapsedS float64
	// BilledHours across all instances that touched the task.
	BilledHours float64
	// CostUSD at the small-instance rate.
	CostUSD float64
	// Grades of the instances used, in order.
	Grades []string
}

// RunTask executes items on a monitored instance with data on an EBS
// volume, replacing the instance (detach + launch + attach, the ~3-minute
// penalty of §3.1) whenever a checkpoint shows it behind schedule. The
// volume's persistence is what makes replacement cheap: no data moves.
func (mo *Monitor) RunTask(ctx context.Context, items []workload.Item, vol *cloudsim.Volume, datasetKey string) (*TaskReport, error) {
	if mo.Chunks < 1 {
		return nil, fmt.Errorf("sched: Chunks must be ≥ 1, got %d", mo.Chunks)
	}
	if mo.SlowRatio <= 1 {
		return nil, fmt.Errorf("sched: SlowRatio must exceed 1, got %v", mo.SlowRatio)
	}
	report := &TaskReport{}
	in, err := mo.launch(report)
	if err != nil {
		return nil, err
	}
	if err := mo.Cloud.Attach(vol, in); err != nil {
		return nil, err
	}
	var elapsed float64     // wall-clock seconds for the whole task
	var instElapsed float64 // running-state seconds on the current instance
	chunks := splitChunks(items, mo.Chunks)
	for ci := 0; ci < len(chunks); ci++ {
		chunk := chunks[ci]
		d, err := workload.EstimateCtx(ctx, in, mo.App, chunk, vol, datasetKey)
		if err != nil {
			return nil, err
		}
		if err := mo.Cloud.Clock().Advance(d); err != nil {
			return nil, err
		}
		elapsed += d.Seconds()
		instElapsed += d.Seconds()
		// Checkpoint: compare observed chunk time against the model.
		predicted := mo.Model.Predict(float64(workload.TotalBytes(chunk)))
		behind := predicted > 0 && d.Seconds()/predicted > mo.SlowRatio
		lastChunk := ci == len(chunks)-1
		if !behind || mo.Policy == NeverReplace || lastChunk {
			continue
		}
		if mo.Policy == ReplaceAtHour {
			// Let the paid hour finish before switching (§7). The idle
			// remainder burns wall-clock but no extra billed hours.
			rem := time.Duration((3600 - mod3600(instElapsed)) * float64(time.Second))
			if err := mo.Cloud.Clock().Advance(rem); err != nil {
				return nil, err
			}
			elapsed += rem.Seconds()
			instElapsed += rem.Seconds()
		}
		report.BilledHours += billHours(instElapsed)
		if err := mo.Cloud.Detach(vol); err != nil {
			return nil, err
		}
		if err := mo.Cloud.Terminate(in); err != nil {
			return nil, err
		}
		in, err = mo.launch(report)
		if err != nil {
			return nil, err
		}
		boot := in.ReadyAt() - mo.Cloud.Clock().Now()
		if boot > 0 {
			elapsed += boot.Seconds()
		}
		if err := mo.Cloud.WaitUntilRunning(in); err != nil {
			return nil, err
		}
		if err := mo.Cloud.Attach(vol, in); err != nil {
			return nil, err
		}
		elapsed += cloudsim.VolumeAttachDelay.Seconds()
		instElapsed = 0
		report.Replacements++
	}
	report.BilledHours += billHours(instElapsed)
	report.ElapsedS = elapsed
	report.CostUSD = report.BilledHours * cloudsim.Small.HourlyRate
	return report, nil
}

// launch starts and readies one instance, recording its grade.
func (mo *Monitor) launch(report *TaskReport) (*cloudsim.Instance, error) {
	in, err := mo.Cloud.Launch(cloudsim.Small, mo.Zone)
	if err != nil {
		return nil, err
	}
	if err := mo.Cloud.WaitUntilRunning(in); err != nil {
		return nil, err
	}
	report.Grades = append(report.Grades, in.Quality.Grade())
	return in, nil
}

func splitChunks(items []workload.Item, n int) [][]workload.Item {
	if n > len(items) {
		n = len(items)
	}
	if n < 1 {
		n = 1
	}
	chunks := make([][]workload.Item, 0, n)
	per := (len(items) + n - 1) / n
	for start := 0; start < len(items); start += per {
		end := start + per
		if end > len(items) {
			end = len(items)
		}
		chunks = append(chunks, items[start:end])
	}
	return chunks
}

func billHours(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	h := seconds / 3600
	whole := float64(int(h))
	if h > whole {
		whole++
	}
	return whole
}

func mod3600(seconds float64) float64 {
	for seconds >= 3600 {
		seconds -= 3600
	}
	return seconds
}
