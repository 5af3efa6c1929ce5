package cloudsim

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// SpotMarket models the spot-instance pricing the paper describes in §1.1:
// prices follow supply and demand; the user names a maximum bid and the
// instance executes whenever the bid exceeds the current market price.
// Applications must resume cleanly across the resulting on/off windows —
// the dynamic scheduler extension exercises exactly that.
//
// The market price is a deterministic function of the hour index: a daily
// sinusoid around a base price plus hash-derived noise, so simulations are
// reproducible.
type SpotMarket struct {
	cloud *Cloud
	// Base is the long-run mean price (dollars/hour) for a small instance;
	// spot historically ran well under the $0.085 on-demand rate.
	Base float64
	// Swing is the relative amplitude of the daily cycle.
	Swing float64
}

func newSpotMarket(c *Cloud) *SpotMarket {
	return &SpotMarket{cloud: c, Base: 0.035, Swing: 0.45}
}

// Price returns the market price for the hour containing t.
func (m *SpotMarket) Price(t time.Duration) float64 {
	hour := int64(t / time.Hour)
	// Daily sinusoid: peaks mid-day of each 24h cycle.
	phase := 2 * math.Pi * float64(hour%24) / 24
	price := m.Base * (1 + m.Swing*math.Sin(phase))
	// Deterministic per-hour noise in [-20%, +20%].
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(hour) >> (8 * i))
	}
	h.Write(buf[:])
	frac := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	price *= 1 + 0.4*(frac-0.5)
	return price
}

// SpotRequest is a persistent spot-instance request: it runs during every
// hour whose market price does not exceed the bid, and is interrupted
// otherwise.
type SpotRequest struct {
	market    *SpotMarket
	Bid       float64
	CreatedAt time.Duration
	Cancelled bool
	cancelAt  time.Duration
}

// RequestSpot places a spot request at the current time.
func (m *SpotMarket) RequestSpot(bid float64) (*SpotRequest, error) {
	if bid <= 0 {
		return nil, fmt.Errorf("cloudsim: spot bid must be positive, got %v", bid)
	}
	return &SpotRequest{market: m, Bid: bid, CreatedAt: m.cloud.clock.Now()}, nil
}

// Cancel ends the request at the current time.
func (r *SpotRequest) Cancel() {
	if !r.Cancelled {
		r.Cancelled = true
		r.cancelAt = r.market.cloud.clock.Now()
	}
}

// end returns the effective end of the request's life so far.
func (r *SpotRequest) end() time.Duration {
	now := r.market.cloud.clock.Now()
	if r.Cancelled && r.cancelAt < now {
		return r.cancelAt
	}
	return now
}

// ActiveAt reports whether the request holds capacity at time t.
func (r *SpotRequest) ActiveAt(t time.Duration) bool {
	if t < r.CreatedAt || (r.Cancelled && t >= r.cancelAt) {
		return false
	}
	return r.market.Price(t) <= r.Bid
}

// Cost returns the accrued spot charges: each active hour is billed at
// that hour's market price (the real spot billing rule).
func (r *SpotRequest) Cost() float64 {
	var total float64
	for h := hourIndex(r.CreatedAt); h < hourIndex(r.end())+1; h++ {
		t := time.Duration(h) * time.Hour
		if t < r.CreatedAt || t >= r.end() {
			continue
		}
		if r.ActiveAt(t) {
			total += r.market.Price(t)
		}
	}
	return total
}

func hourIndex(t time.Duration) int64 { return int64(t / time.Hour) }
