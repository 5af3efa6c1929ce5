package workload_test

import (
	"testing"

	"repro/internal/scan/kerneltest"
	"repro/internal/textproc"
	"repro/internal/workload"
)

// TestStatsComplexityKernelConformance pins the portable-state contract
// on what the constructor the frozen benchmark harness names returns: the
// analyzer kernel with a lexicon, the production configuration of the
// distributed scan.
func TestStatsComplexityKernelConformance(t *testing.T) {
	kerneltest.Conformance(t, workload.NewStatsComplexityKernel(textproc.NewTagger()), nil)
}
