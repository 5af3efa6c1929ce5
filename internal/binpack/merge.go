package binpack

import "fmt"

// MergeGroups coalesces consecutive groups of k bins into single bins of
// k times the capacity. This is the paper's §4 derivation trick: run the
// subset-sum first-fit packing once at unit size s₀, then obtain the probe
// sets for s₁..sₙ = multiples of s₀ by merging bins directly, avoiding a
// re-pack per unit size. The trailing partial group (fewer than k bins) is
// merged as well.
//
// Oversized flags are preserved only if the merged content still exceeds the
// merged capacity.
func MergeGroups(bins []*Bin, k int) ([]*Bin, error) {
	if k <= 0 {
		return nil, fmt.Errorf("binpack: merge factor must be positive, got %d", k)
	}
	if k == 1 {
		out := make([]*Bin, len(bins))
		for i, b := range bins {
			cp := *b
			cp.Items = append([]Item(nil), b.Items...)
			cp.Pos = append([]int32(nil), b.Pos...)
			out[i] = &cp
		}
		return out, nil
	}
	var out []*Bin
	for start := 0; start < len(bins); start += k {
		end := start + k
		if end > len(bins) {
			end = len(bins)
		}
		var capSum int64
		merged := &Bin{}
		for _, b := range bins[start:end] {
			capSum += b.Capacity
			merged.Items = append(merged.Items, b.Items...)
			merged.Pos = append(merged.Pos, b.Pos...)
			merged.Used += b.Used
		}
		// Keep the nominal capacity of a full group so unit file sizes stay
		// comparable even for the trailing partial group.
		if len(bins[start:end]) > 0 {
			merged.Capacity = bins[start].Capacity * int64(k)
		} else {
			merged.Capacity = capSum
		}
		merged.Oversized = merged.Used > merged.Capacity
		out = append(out, merged)
	}
	return out, nil
}
