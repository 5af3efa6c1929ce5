package workload

import "testing"

// TestGrepPatternComplexityShiftsBottleneck: the paper's simple-pattern
// grep is I/O-bound — halving storage bandwidth nearly halves throughput.
func TestGrepPatternComplexityShiftsBottleneck(t *testing.T) {
	_, in := goodInstance(t, 21)
	g := NewGrep()
	it := NewItem(1_000_000_000)
	fast := g.Process(it, 80, in)
	slow := g.Process(it, 40, in)
	if ioSensitivity := float64(slow) / float64(fast); ioSensitivity < 1.5 {
		t.Errorf("simple pattern I/O sensitivity = %v, want ≈2", ioSensitivity)
	}
}
