package cloudsim

import (
	"context"
	"fmt"
	"time"

	"repro/internal/errs"
)

// BonnieResult is one run of the bonnie++-style storage micro-benchmark the
// paper uses to qualify instances (§4: "over 60 MB/s block read/write
// performance").
type BonnieResult struct {
	BlockReadMBps  float64
	BlockWriteMBps float64
	Elapsed        time.Duration
}

// Passes reports whether both bandwidths clear the qualification bar.
func (b BonnieResult) Passes() bool {
	return b.BlockReadMBps > QualificationThresholdMBps &&
		b.BlockWriteMBps > QualificationThresholdMBps
}

// bonnieWorkMB is the volume the benchmark streams in each direction.
const bonnieWorkMB = 512.0

// RunBonnie benchmarks the instance's local storage, consuming virtual
// time proportional to the measured speeds. Unstable instances return
// noticeably different numbers on repeated runs — which is exactly why the
// qualification procedure repeats the measurement.
func (c *Cloud) RunBonnie(in *Instance) (BonnieResult, error) {
	if in.State() != Running {
		return BonnieResult{}, fmt.Errorf("cloudsim: instance %s is %s, not running", in.ID, in.State())
	}
	read := in.Quality.SeqReadMBps * in.NoiseFactor()
	write := in.Quality.SeqWriteMBps * in.NoiseFactor()
	elapsed := EstimateTransfer(int64(bonnieWorkMB*1_000_000), read) +
		EstimateTransfer(int64(bonnieWorkMB*1_000_000), write)
	if err := c.clock.Advance(elapsed); err != nil {
		return BonnieResult{}, err
	}
	return BonnieResult{BlockReadMBps: read, BlockWriteMBps: write, Elapsed: elapsed}, nil
}

// AcquireQualifiedCtx implements the paper's acquisition loop: request an
// instance, wait for it to run, benchmark it twice (the repeat confirms
// stability), and terminate-and-retry until one passes both runs with
// consistent numbers. maxAttempts bounds the loop. It returns the
// qualified instance and the number of instances tried. The context is
// checked before each launch attempt: an abort mid-loop returns the typed
// cancellation error without leaking a running instance (the instance
// from the previous failed attempt was already terminated).
func (c *Cloud) AcquireQualifiedCtx(ctx context.Context, t InstanceType, zone string, maxAttempts int) (*Instance, int, error) {
	if maxAttempts <= 0 {
		maxAttempts = 10
	}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if cerr := errs.FromContext(ctx); cerr != nil {
			return nil, attempt - 1, cerr
		}
		in, err := c.Launch(t, zone)
		if err != nil {
			return nil, attempt, err
		}
		if err := c.WaitUntilRunning(in); err != nil {
			return nil, attempt, err
		}
		first, err := c.RunBonnie(in)
		if err != nil {
			return nil, attempt, err
		}
		second, err := c.RunBonnie(in)
		if err != nil {
			return nil, attempt, err
		}
		if first.Passes() && second.Passes() && consistent(first, second) {
			return in, attempt, nil
		}
		if err := c.Terminate(in); err != nil {
			return nil, attempt, err
		}
	}
	return nil, maxAttempts, fmt.Errorf("cloudsim: no qualified instance after %d attempts", maxAttempts)
}

// consistent checks that two benchmark runs agree within 15%, the repeated
// measurement that screens out unstable instances.
func consistent(a, b BonnieResult) bool {
	rel := func(x, y float64) float64 {
		if y == 0 {
			return 1
		}
		d := x - y
		if d < 0 {
			d = -d
		}
		return d / y
	}
	return rel(a.BlockReadMBps, b.BlockReadMBps) < 0.15 &&
		rel(a.BlockWriteMBps, b.BlockWriteMBps) < 0.15
}
