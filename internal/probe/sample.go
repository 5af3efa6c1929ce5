package probe

import (
	"fmt"
	"math/rand"

	"repro/internal/binpack"
)

// SampleWithoutReplacement draws files uniformly at random, without
// replacement, until the cumulative size reaches volume — the §5.1/§5.2
// random-sampling procedure used to refit the performance models ("we
// choose 10 random samples (without replacement) of 2 GB"). The input
// slice is not modified. The last drawn file may overshoot the volume,
// mirroring the paper's whole-file samples.
func SampleWithoutReplacement(files []binpack.Item, volume int64, r *rand.Rand) ([]binpack.Item, error) {
	if volume <= 0 {
		return nil, fmt.Errorf("probe: sample volume must be positive, got %d", volume)
	}
	if r == nil {
		return nil, fmt.Errorf("probe: nil random source")
	}
	var available int64
	for _, f := range files {
		available += f.Size
	}
	if available < volume {
		return nil, fmt.Errorf("probe: corpus holds %d bytes, sample needs %d", available, volume)
	}
	// Partial Fisher-Yates over an index permutation: draw until filled.
	idx := make([]int, len(files))
	for i := range idx {
		idx[i] = i
	}
	var out []binpack.Item
	var total int64
	for i := 0; total < volume && i < len(idx); i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		f := files[idx[i]]
		out = append(out, f)
		total += f.Size
	}
	return out, nil
}
