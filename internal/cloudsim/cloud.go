package cloudsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/stats"
)

// Instance is a simulated EC2 virtual machine.
type Instance struct {
	ID      string
	Type    InstanceType
	Zone    string
	Quality Quality

	cloud        *Cloud
	launchedAt   time.Duration // request time (pending starts)
	runningAt    time.Duration // when it entered running
	stoppedAt    time.Duration // when terminate was requested (billing stops)
	terminatedAt time.Duration // when shutdown completed
	terminated   bool
	volumes      map[string]*Volume
	noise        *rand.Rand // per-instance measurement-noise stream
}

// State returns the lifecycle state at the cloud's current virtual time.
func (in *Instance) State() State {
	now := in.cloud.clock.Now()
	if in.terminated {
		if now < in.terminatedAt {
			return ShuttingDown
		}
		return Terminated
	}
	if now < in.runningAt {
		return Pending
	}
	return Running
}

// BillHours converts a running duration to billable hours: every started
// hour counts in full. Zero duration bills zero.
func BillHours(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return math.Ceil(d.Hours())
}

// Volumes returns the currently attached volumes keyed by ID.
func (in *Instance) Volumes() map[string]*Volume {
	out := make(map[string]*Volume, len(in.volumes))
	for id, v := range in.volumes {
		out[id] = v
	}
	return out
}

// NoiseFactor draws a multiplicative measurement-noise factor from the
// instance's private stream. Stable instances vary a little; unstable ones
// a lot (the repeated-measurement qualification exists to catch them).
func (in *Instance) NoiseFactor() float64 {
	return in.noiseWith(0.02, 0.35)
}

// SetupNoiseFactor draws the much wider noise applied to per-run setup
// overheads: the paper discards 1 MB probes because "unstable setup
// overheads" dominate short runs (Fig. 3).
func (in *Instance) SetupNoiseFactor() float64 {
	return in.noiseWith(0.60, 0.90)
}

func (in *Instance) noiseWith(stableSD, unstableSD float64) float64 {
	sd := stableSD
	if !in.Quality.Stable {
		sd = unstableSD
	}
	f := 1 + in.noise.NormFloat64()*sd
	if f < 0.1 {
		f = 0.1
	}
	return f
}

// QualityDist configures the instance-quality lottery. Fractions must sum
// to at most 1; the remainder is "good".
type QualityDist struct {
	SlowFraction     float64 // consistently slow instances
	UnstableFraction float64 // high-variance instances
}

// DefaultQualityDist mirrors the paper's observations: most instances are
// good, a noticeable minority are consistently slow or unstable.
var DefaultQualityDist = QualityDist{SlowFraction: 0.15, UnstableFraction: 0.10}

// Cloud is the simulated EC2 region-level API.
type Cloud struct {
	clock    *Clock
	seed     int64
	region   Region
	quality  QualityDist
	launch   *rand.Rand // boot-delay + quality lottery stream
	nextInst int
	nextVol  int
	insts    []*Instance // every instance launched, in launch order
	vols     map[string]*Volume
}

// New creates a cloud in the default US-east region.
func New(seed int64) *Cloud {
	return NewInRegion(seed, USEast, DefaultQualityDist)
}

// NewInRegion creates a cloud with explicit region and quality mix.
func NewInRegion(seed int64, region Region, q QualityDist) *Cloud {
	c := &Cloud{
		clock:   &Clock{},
		seed:    seed,
		region:  region,
		quality: q,
		launch:  stats.NewRand(seed, "cloud-launch"),
		vols:    make(map[string]*Volume),
	}
	return c
}

// Clock exposes the simulation clock.
func (c *Cloud) Clock() *Clock { return c.clock }

// Region returns the cloud's region.
func (c *Cloud) Region() Region { return c.region }

func (c *Cloud) validZone(zone string) bool {
	for _, z := range c.region.Zones {
		if z == zone {
			return true
		}
	}
	return false
}

// drawQuality runs the quality lottery for a new instance.
func (c *Cloud) drawQuality(r *rand.Rand) Quality {
	roll := r.Float64()
	switch {
	case roll < c.quality.SlowFraction:
		// Consistently slow: CPU 0.25-0.7x (the factor-of-4 spread),
		// I/O well under the 60 MB/s qualification bar.
		return Quality{
			CPUFactor:    0.25 + 0.45*r.Float64(),
			SeqReadMBps:  20 + 35*r.Float64(),
			SeqWriteMBps: 15 + 30*r.Float64(),
			Stable:       true,
		}
	case roll < c.quality.SlowFraction+c.quality.UnstableFraction:
		// Nominal speeds but unstable measurements.
		return Quality{
			CPUFactor:    0.8 + 0.3*r.Float64(),
			SeqReadMBps:  55 + 40*r.Float64(),
			SeqWriteMBps: 45 + 35*r.Float64(),
			Stable:       false,
		}
	default:
		return Quality{
			CPUFactor:    0.9 + 0.2*r.Float64(),
			SeqReadMBps:  65 + 45*r.Float64(),
			SeqWriteMBps: 55 + 35*r.Float64(),
			Stable:       true,
		}
	}
}

// NominalQuality is the quality of an idealised, perfectly uniform
// instance — what the paper's §5 planning assumes ("all instances are
// uniform and performing well"). LaunchNominal uses it for controlled
// experiments.
var NominalQuality = Quality{CPUFactor: 1.0, SeqReadMBps: 80, SeqWriteMBps: 70, Stable: true}

// LaunchNominal launches an instance that skips the quality lottery and
// receives NominalQuality. Boot delay and measurement noise still apply.
func (c *Cloud) LaunchNominal(t InstanceType, zone string) (*Instance, error) {
	in, err := c.Launch(t, zone)
	if err != nil {
		return nil, err
	}
	in.Quality = NominalQuality
	return in, nil
}

// Launch requests a new on-demand instance in the given zone. The instance
// starts pending and becomes running after a boot delay; billing accrues
// only in the running state.
func (c *Cloud) Launch(t InstanceType, zone string) (*Instance, error) {
	if !c.validZone(zone) {
		return nil, fmt.Errorf("cloudsim: unknown zone %q in region %s", zone, c.region.Name)
	}
	if t.HourlyRate <= 0 || t.ComputeUnits <= 0 {
		return nil, fmt.Errorf("cloudsim: invalid instance type %+v", t)
	}
	c.nextInst++
	id := fmt.Sprintf("i-%06d", c.nextInst)
	boot := MinBootDelay + time.Duration(c.launch.Int63n(int64(MaxBootDelay-MinBootDelay)))
	in := &Instance{
		ID:         id,
		Type:       t,
		Zone:       zone,
		Quality:    c.drawQuality(c.launch),
		cloud:      c,
		launchedAt: c.clock.Now(),
		runningAt:  c.clock.Now() + boot,
		volumes:    make(map[string]*Volume),
		noise:      stats.NewRand(c.seed, "instance-noise-"+id),
	}
	c.insts = append(c.insts, in)
	return in, nil
}

// WaitUntilRunning advances the clock to the instance's ready time.
func (c *Cloud) WaitUntilRunning(in *Instance) error {
	if in.terminated {
		return fmt.Errorf("cloudsim: instance %s is %s", in.ID, in.State())
	}
	c.clock.AdvanceTo(in.runningAt)
	return nil
}

// Terminate requests instance shutdown. Billing stops immediately (time in
// shutting-down state is free, §3.1); attached volumes detach.
func (c *Cloud) Terminate(in *Instance) error {
	if in.terminated {
		return fmt.Errorf("cloudsim: instance %s already terminated", in.ID)
	}
	in.terminated = true
	in.stoppedAt = c.clock.Now()
	in.terminatedAt = c.clock.Now() + ShutdownDelay
	for _, v := range in.Volumes() {
		v.attachedTo = nil
		delete(in.volumes, v.ID)
	}
	return nil
}
