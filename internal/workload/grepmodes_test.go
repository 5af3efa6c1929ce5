package workload

import (
	"testing"

	"repro/internal/cloudsim"
)

func TestGrepPatternComplexityShiftsBottleneck(t *testing.T) {
	_, in := goodInstance(t, 21)
	simple := NewGrep()
	complex := NewGrep()
	complex.PatternComplexity = 20 // heavy regexp: CPU-bound regime
	it := NewItem(1_000_000_000)

	// Simple pattern: I/O-bound — halving storage bandwidth nearly halves
	// throughput.
	fast := simple.Process(it, 80, in)
	slow := simple.Process(it, 40, in)
	ioSensitivity := float64(slow) / float64(fast)
	if ioSensitivity < 1.5 {
		t.Errorf("simple pattern I/O sensitivity = %v, want ≈2", ioSensitivity)
	}
	// Complex pattern: CPU-bound — storage bandwidth barely matters.
	cFast := complex.Process(it, 80, in)
	cSlow := complex.Process(it, 40, in)
	cpuSensitivity := float64(cSlow) / float64(cFast)
	if cpuSensitivity > 1.3 {
		t.Errorf("complex pattern I/O sensitivity = %v, want ≈1", cpuSensitivity)
	}
	// And the complex pattern is much slower overall.
	if float64(cFast) < 3*float64(fast) {
		t.Errorf("complex pattern only %vx slower", float64(cFast)/float64(fast))
	}
}

func TestGrepMatchOutputCost(t *testing.T) {
	_, in := goodInstance(t, 22)
	worst := NewGrep() // never matches: no output
	matchy := NewGrep()
	matchy.MatchesPerMB = 2000 // dense matches
	matchy.AvgMatchBytes = 500 // long matching lines
	it := NewItem(1_000_000_000)
	base := worst.Process(it, 80, in)
	withOutput := matchy.Process(it, 80, in)
	if withOutput <= base {
		t.Error("match output generation costs nothing")
	}
	// The worst case emits no output, so the whole difference is writing
	// 2000 matches/MB × 500 B × 1000 MB = 1 GB of it.
	want := cloudsim.EstimateTransfer(1_000_000_000, matchy.OutputMBps*cpuOf(in))
	if got := withOutput - base; got != want {
		t.Errorf("output time = %v, want %v for 1 GB", got, want)
	}
}

func TestGrepComplexityFloor(t *testing.T) {
	g := NewGrep()
	g.PatternComplexity = 0 // misconfigured: clamps to 1
	_, in := goodInstance(t, 23)
	a := g.Process(NewItem(1000000), 80, in)
	g.PatternComplexity = 1
	b := g.Process(NewItem(1000000), 80, in)
	if a != b {
		t.Error("complexity floor not applied")
	}
}
