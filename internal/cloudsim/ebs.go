package cloudsim

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Volume is a simulated EBS storage volume (§1.1): a raw block device that
// persists independently of instances, attaches to at most one instance at
// a time, and must live in the same availability zone as that instance.
//
// The paper observed that data placed in different locations of the same
// logical volume can show consistently different access times — repeatable
// factor-of-3 variations that produce the spikes of Fig. 5. The simulator
// models this with a deterministic per-(volume, dataset-key) placement
// factor.
type Volume struct {
	ID     string
	Zone   string
	SizeGB int

	cloud      *Cloud
	attachedTo *Instance
	// BaseReadMBps is the nominal volume bandwidth before placement and
	// instance effects. EBS latency is lower-variance than S3 but the
	// bandwidth is bounded by network attachment.
	BaseReadMBps float64
}

// CreateVolume provisions a new EBS volume in a zone.
func (c *Cloud) CreateVolume(zone string, sizeGB int) (*Volume, error) {
	if !c.validZone(zone) {
		return nil, fmt.Errorf("cloudsim: unknown zone %q", zone)
	}
	if sizeGB <= 0 {
		return nil, fmt.Errorf("cloudsim: volume size must be positive, got %d", sizeGB)
	}
	c.nextVol++
	id := fmt.Sprintf("vol-%06d", c.nextVol)
	v := &Volume{
		ID:           id,
		Zone:         zone,
		SizeGB:       sizeGB,
		cloud:        c,
		BaseReadMBps: 80,
	}
	c.vols[id] = v
	return v, nil
}

// Attach connects the volume to an instance. Both must be in the same
// zone; the volume must be detached; the instance must be running. The
// attach operation consumes virtual time.
func (c *Cloud) Attach(v *Volume, in *Instance) error {
	if v.attachedTo != nil {
		return fmt.Errorf("cloudsim: volume %s already attached to %s", v.ID, v.attachedTo.ID)
	}
	if in.State() != Running {
		return fmt.Errorf("cloudsim: instance %s is %s, not running", in.ID, in.State())
	}
	if v.Zone != in.Zone {
		return fmt.Errorf("cloudsim: volume %s in %s cannot attach to instance in %s", v.ID, v.Zone, in.Zone)
	}
	if err := c.clock.Advance(VolumeAttachDelay); err != nil {
		return err
	}
	v.attachedTo = in
	in.volumes[v.ID] = v
	return nil
}

// PlacementFactor returns the deterministic access-time multiplier for a
// dataset key on this volume: 1.0 for most placements, and between
// slowMin and slowMax (1.5x-3x, the paper's observed clone variation) for
// an unlucky ~12% of placements. The same (volume, key) pair always maps
// to the same factor — the spikes are "repeatable and stable in time".
func (v *Volume) PlacementFactor(key string) float64 {
	const (
		slowFraction = 0.12
		slowMin      = 1.5
		slowMax      = 3.0
	)
	h := fnv.New64a()
	h.Write([]byte(v.ID))
	h.Write([]byte{0})
	h.Write([]byte(key))
	u := h.Sum64()
	// Uniform in [0,1) from the hash.
	frac := float64(u>>11) / float64(uint64(1)<<53)
	if frac >= slowFraction {
		return 1.0
	}
	// Map the slow band through a second hash-derived uniform.
	frac2 := frac / slowFraction
	return slowMin + (slowMax-slowMin)*frac2
}

// ReadMBps returns the effective sequential read bandwidth an instance
// sees for a dataset on this volume: the minimum of volume and instance
// bandwidth, divided by the placement factor.
func (v *Volume) ReadMBps(in *Instance, key string) float64 {
	bw := v.BaseReadMBps
	if in != nil && in.Quality.SeqReadMBps < bw {
		bw = in.Quality.SeqReadMBps
	}
	return bw / v.PlacementFactor(key)
}

// EstimateTransfer returns the virtual time to move `bytes` at `mbps`.
func EstimateTransfer(bytes int64, mbps float64) time.Duration {
	if mbps <= 0 || bytes <= 0 {
		return 0
	}
	seconds := float64(bytes) / (mbps * 1_000_000)
	return time.Duration(seconds * float64(time.Second))
}
