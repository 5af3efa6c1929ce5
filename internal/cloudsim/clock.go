// Package cloudsim is a deterministic virtual-time simulator of the Amazon
// EC2 environment as the paper describes it (§1.1, §3.1): on-demand
// instances with hour-granular flat-rate billing, pending/running lifecycle
// with boot latency, availability zones, heterogeneous instance quality
// (CPU up to 4x apart, variable I/O — Dejun et al., cited in §6),
// attachable EBS volumes with placement-dependent access speed (the
// repeatable Fig. 5 spikes), a bonnie++-style qualification benchmark,
// and the S3/EC2 transfer pricing and retrieval time of the paper's
// output-segmentation argument (§1).
//
// All randomness is drawn from seeded streams derived from the cloud's root
// seed, so simulations are bit-reproducible. Time is virtual: nothing
// sleeps, and advancing the clock is explicit.
package cloudsim

import (
	"fmt"
	"time"
)

// Clock is the simulation's virtual time source. The zero value starts at
// virtual time zero.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration { return c.now }

// Advance moves virtual time forward by d.
func (c *Clock) Advance(d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("cloudsim: cannot advance clock by negative duration %v", d)
	}
	c.now += d
	return nil
}

// AdvanceTo moves virtual time forward to t (no-op if t is in the past;
// the clock never goes backwards).
func (c *Clock) AdvanceTo(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}
