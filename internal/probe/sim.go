package probe

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cloudsim"
	"repro/internal/workload"
)

// Harness is the simulated Runner: it runs probes with an application's
// cost model on a qualified cloudsim instance, reading from local storage
// or an EBS volume.
type Harness struct {
	Cloud    *cloudsim.Cloud
	Instance *cloudsim.Instance
	App      workload.App
	Storage  workload.Storage
	// Complexity optionally holds the content complexity of each corpus
	// file, by position; probes then price a heterogeneous corpus, and a
	// unit file carries the size-weighted mean of its members'. Nil means
	// uniform complexity 1.
	Complexity []float64
}

// NewHarness creates a harness for a uniform-complexity corpus.
func NewHarness(c *cloudsim.Cloud, in *cloudsim.Instance, app workload.App, st workload.Storage) *Harness {
	return &Harness{Cloud: c, Instance: in, App: app, Storage: st}
}

// DatasetKey names the dataset a probe occupies on storage. EBS placement
// effects key off it, so keying by volume and unit size reproduces
// Fig. 5's per-unit-size spikes.
func DatasetKey(volume, unitSize int64) string {
	return fmt.Sprintf("probe-v%d-u%d", volume, unitSize)
}

// RunProbeCtx runs the probe's unit files once. Each run draws from the
// instance's noise stream and advances the virtual clock, which is why
// MeasureProbeCtx keeps the repeats in sequence. Parallelism lives one
// level down, inside workload.EstimateCtx's per-item cost sum, which is
// RNG-free, so a run consumes the same draws whatever context it is given.
func (h *Harness) RunProbeCtx(ctx context.Context, p Probe) (time.Duration, error) {
	return workload.RunCtx(ctx, h.Cloud, h.Instance, h.App, h.items(p), h.Storage, DatasetKey(p.Volume, p.UnitSize))
}

// items prices the probe's unit files: each file at its own complexity,
// each bin at the size-weighted mean of its members', each member's
// factor read at its position.
func (h *Harness) items(p Probe) []workload.Item {
	if p.Bins == nil {
		items := make([]workload.Item, len(p.Files))
		for i, f := range p.Files {
			items[i] = workload.Item{Size: f.Size, Complexity: h.complexityAt(i)}
		}
		return items
	}
	items := make([]workload.Item, 0, len(p.Bins))
	for _, b := range p.Bins {
		if b.Used == 0 {
			continue
		}
		var weighted float64
		for j, it := range b.Items {
			weighted += h.complexityAt(int(b.Pos[j])) * float64(it.Size)
		}
		items = append(items, workload.Item{Size: b.Used, Complexity: weighted / float64(b.Used)})
	}
	return items
}

// complexityAt is file i's complexity: Complexity[i], or 1 when that is
// missing.
func (h *Harness) complexityAt(i int) float64 {
	if i < len(h.Complexity) && h.Complexity[i] > 0 {
		return h.Complexity[i]
	}
	return 1
}
