package scan

import "sort"

// SequentialOrder returns the sources arranged for sequential disk reads:
// sources that carry shard locality (pack-backed members) are grouped by
// shard path and sorted by byte offset within each shard, so a scan walks
// every pack front to back instead of seeking per member. Sources without
// locality keep their relative order and sort ahead of sharded ones. The
// input is not modified; when nothing carries locality it is returned
// as-is. Note this reorders *scanning* only — order-defined folds like the
// combined checksum must keep their semantic input order and should not
// be fed through this.
func SequentialOrder(srcs []Source) []Source {
	sharded := false
	for i := range srcs {
		if shard, _ := srcs[i].Locality(); shard != "" {
			sharded = true
			break
		}
	}
	if !sharded {
		return srcs
	}
	out := append([]Source(nil), srcs...)
	sort.SliceStable(out, func(i, j int) bool {
		si, oi := out[i].Locality()
		sj, oj := out[j].Locality()
		if si != sj {
			return si < sj
		}
		return oi < oj
	})
	return out
}
