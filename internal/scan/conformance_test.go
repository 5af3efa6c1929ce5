package scan_test

import (
	"testing"

	"repro/internal/scan"
	"repro/internal/scan/kerneltest"
)

// TestChecksumConformance pins the portable-state contract for the
// per-file checksum kernel: Snapshot/Restore round trips, Merge drains,
// and folding across a process boundary is bit-identical.
func TestChecksumConformance(t *testing.T) {
	kerneltest.Conformance(t, scan.NewChecksum(), nil)
}
