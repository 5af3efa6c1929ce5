package cloudsim

import (
	"fmt"
)

// Zone failure injection. Availability zones "are constructed by Amazon to
// be insulated from one another's failure" (§1.1) and the region-level SLA
// is 99.95%; the 0.05% exists. FailZone models a zone outage that lasts
// the rest of the run, so schedulers can exercise failover: instances in
// the zone die, attached volumes detach, and launches into the zone fail.
// Other zones are unaffected — the insulation property.

// FailZone marks a zone failed at the current virtual time. All running or
// pending instances in the zone terminate immediately (billing stops);
// EBS volumes in the zone survive (persistence) but detach, and no
// instance can run in the zone to attach them again.
func (c *Cloud) FailZone(zone string) error {
	if !c.validZone(zone) {
		return fmt.Errorf("cloudsim: unknown zone %q", zone)
	}
	if c.failedZones == nil {
		c.failedZones = make(map[string]bool)
	}
	if c.failedZones[zone] {
		return fmt.Errorf("cloudsim: zone %q already failed", zone)
	}
	c.failedZones[zone] = true
	for _, in := range c.Instances() {
		if in.Zone != zone || in.terminated {
			continue
		}
		in.terminated = true
		in.stoppedAt = c.clock.Now()
		in.terminatedAt = c.clock.Now() // outage: no graceful shutdown
		for _, v := range in.Volumes() {
			v.attachedTo = nil
			delete(in.volumes, v.ID)
		}
	}
	return nil
}

// ZoneFailed reports whether a zone is currently failed.
func (c *Cloud) ZoneFailed(zone string) bool { return c.failedZones[zone] }

// HealthyZones returns the zones currently accepting launches.
func (c *Cloud) HealthyZones() []string {
	out := make([]string, 0, len(c.region.Zones))
	for _, z := range c.region.Zones {
		if !c.failedZones[z] {
			out = append(out, z)
		}
	}
	return out
}
