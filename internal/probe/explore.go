package probe

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/binpack"
	"repro/internal/workload"
)

// ExploreSubsets implements the §5 observation that "we may repeat this
// process on non-overlapping subsets of the total volume. This would allow
// us to explore a larger volume of our data set through random sampling,
// at a smaller computational cost": n disjoint random samples of the given
// volume are drawn, each reshaped to unitSize (0 keeps the original
// segmentation) and measured. The pooled per-run points are returned
// alongside the per-sample measurements, ready for model (re)fitting.
func (h *Harness) ExploreSubsets(ctx context.Context, files []binpack.Item, n int, volume, unitSize int64, r *rand.Rand) ([]Measurement, []float64, []float64, error) {
	samples, err := MultiSample(files, n, volume, r)
	if err != nil {
		return nil, nil, nil, err
	}
	var ms []Measurement
	var xs, ys []float64
	for si, sample := range samples {
		items, err := subsetItems(sample, unitSize)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("probe: subset %d: %w", si, err)
		}
		actualVolume := workload.TotalBytes(items)
		// Each subset gets its own dataset key: on EBS storage this means
		// its own placement draw, exactly like a separately staged sample.
		saved := h.DatasetKeyFn
		h.DatasetKeyFn = func(v, u int64) string {
			return fmt.Sprintf("subset-%d-v%d-u%d", si, v, u)
		}
		m, err := h.MeasureProbeCtx(ctx, actualVolume, unitSize, items)
		h.DatasetKeyFn = saved
		if err != nil {
			return nil, nil, nil, err
		}
		ms = append(ms, m)
		for _, run := range m.Runs {
			xs = append(xs, float64(actualVolume))
			ys = append(ys, run)
		}
	}
	return ms, xs, ys, nil
}

// subsetItems reshapes one sample at the unit size (0 = original files).
func subsetItems(sample []binpack.Item, unitSize int64) ([]workload.Item, error) {
	if unitSize == 0 {
		items := make([]workload.Item, len(sample))
		for i, f := range sample {
			items[i] = workload.NewItem(f.Size)
		}
		return items, nil
	}
	bins, err := binpack.SubsetSumFirstFit(sample, unitSize)
	if err != nil {
		return nil, err
	}
	if err := binpack.Verify(sample, bins); err != nil {
		return nil, err
	}
	return binsToItems(bins), nil
}
