package corpus

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/vfs"
)

// Complexity profiles. The paper's §5.2 closes on the observation that for
// corpora that are *not* uniform in language complexity, "random sampling
// can be vital to help capture the variation in text complexity" — a
// calibration taken from one region of the corpus misprices the rest. A
// Profile pairs a corpus with per-file complexity factors so probes,
// models and plans can reproduce that mechanism.

// Gradient describes how complexity varies across the corpus (by file
// index fraction in [0,1]).
type Gradient interface {
	// At returns the expected complexity at position frac ∈ [0,1].
	At(frac float64) float64
}

// FlatComplexity is a uniform corpus (the paper's news set: "corpora that
// are uniform in terms of language complexity").
type FlatComplexity float64

// At implements Gradient.
func (f FlatComplexity) At(float64) float64 { return float64(f) }

// RampComplexity rises linearly from From to To across the corpus — e.g. a
// collection ordered by source where later files are denser prose. A
// prefix-based calibration sees only the From end.
type RampComplexity struct {
	From, To float64
}

// At implements Gradient.
func (r RampComplexity) At(frac float64) float64 {
	return r.From + (r.To-r.From)*frac
}

// Profile is a corpus plus its per-file complexity factors.
type Profile struct {
	FS *vfs.FS
	// Complexity holds each file's content complexity factor, in
	// FS.List() order.
	Complexity []float64
}

// GenerateProfile builds a metadata-only corpus whose files carry
// complexity factors: the gradient's expectation at the file's position,
// jittered log-normally with the given sigma (0 = deterministic).
func GenerateProfile(spec Spec, seed int64, g Gradient, jitterSigma float64) (*Profile, error) {
	if g == nil {
		return nil, fmt.Errorf("corpus: nil gradient")
	}
	if jitterSigma < 0 {
		return nil, fmt.Errorf("corpus: negative jitter sigma %v", jitterSigma)
	}
	fs, err := Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	r := stats.NewRand(seed, "corpus-complexity-"+spec.Name)
	cx := make([]float64, fs.Len())
	n := float64(len(cx))
	for i := range cx {
		frac := 0.0
		if n > 1 {
			frac = float64(i) / (n - 1)
		}
		c := g.At(frac)
		if jitterSigma > 0 {
			c *= math.Exp(r.NormFloat64() * jitterSigma)
		}
		if c < 0.05 {
			c = 0.05
		}
		cx[i] = c
	}
	return &Profile{FS: fs, Complexity: cx}, nil
}
