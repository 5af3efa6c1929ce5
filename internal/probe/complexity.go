package probe

import (
	"repro/internal/binpack"
	"repro/internal/workload"
)

// Complexity-aware item construction: probes built over a heterogeneous
// corpus (corpus.Profile) carry each file's complexity, and merged unit
// files carry the size-weighted mean of their members' — the physically
// right aggregate for a per-byte cost model.

// complexityAt is file i's complexity: cx[i], or 1 when that is missing.
func complexityAt(cx []float64, i int) float64 {
	if i < len(cx) && cx[i] > 0 {
		return cx[i]
	}
	return 1
}

// ItemsWithComplexity converts files to workload items carrying their
// complexity factors, cx[i] being files[i]'s.
func ItemsWithComplexity(files []binpack.Item, cx []float64) []workload.Item {
	items := make([]workload.Item, len(files))
	for i, f := range files {
		items[i] = workload.Item{Size: f.Size, Complexity: complexityAt(cx, i)}
	}
	return items
}

// BinsToItemsWithComplexity converts packed bins to unit-file items whose
// complexity is the size-weighted mean of the members', each member's
// factor read at its input position (Bin.Pos).
func BinsToItemsWithComplexity(bins []*binpack.Bin, cx []float64) []workload.Item {
	items := make([]workload.Item, 0, len(bins))
	for _, b := range bins {
		if b.Used == 0 {
			continue
		}
		var weighted float64
		for j, it := range b.Items {
			weighted += complexityAt(cx, int(b.Pos[j])) * float64(it.Size)
		}
		items = append(items, workload.Item{
			Size:       b.Used,
			Complexity: weighted / float64(b.Used),
		})
	}
	return items
}
