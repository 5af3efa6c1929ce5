package workload

import (
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/stats"
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

func TestS3StorageSlowerAndNoisierThanLocal(t *testing.T) {
	_, in := goodInstance(t, 24)
	s3 := S3Storage{}
	var s3Rates, localRates []float64
	for i := 0; i < 200; i++ {
		s3Rates = append(s3Rates, s3.ReadMBps(in, "k"))
		localRates = append(localRates, Local{}.ReadMBps(in, "k"))
	}
	s3Sum := stats.Summarize(s3Rates)
	localSum := stats.Summarize(localRates)
	if s3Sum.Mean >= localSum.Mean {
		t.Errorf("S3 mean %v not below local %v", s3Sum.Mean, localSum.Mean)
	}
	// Local storage rate is a constant (up to float accumulation); S3 must
	// jitter.
	if localSum.StdDev > 1e-9 {
		t.Errorf("local rate jitters: %v", localSum.StdDev)
	}
	if s3Sum.CV() < 0.01 {
		t.Errorf("S3 rate CV = %v, want visible variability", s3Sum.CV())
	}
}

func TestS3StorageDefaults(t *testing.T) {
	if got := (S3Storage{}).ReadMBps(nil, "k"); got != 40 {
		t.Errorf("nil-instance S3 rate = %v, want base 40", got)
	}
	if got := (S3Storage{BaseMBps: 10}).ReadMBps(nil, "k"); got != 10 {
		t.Errorf("custom base = %v", got)
	}
}
