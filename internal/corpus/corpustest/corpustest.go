// Package corpustest builds complexity profiles for the tests of the
// packages that consume a corpus.Profile (probe, core).
package corpustest

import (
	"math"

	"repro/internal/corpus"
	"repro/internal/stats"
)

// Ramp builds a metadata-only corpus whose files carry complexity factors
// rising linearly from `from` at the first file to `to` at the last, in
// List order, each jittered log-normally with the given sigma (0 =
// deterministic) and floored at 0.05. A ramp with from == to is a flat,
// uniform-complexity corpus — the paper's news set.
func Ramp(spec corpus.Spec, seed int64, from, to, sigma float64) (*corpus.Profile, error) {
	fs, err := corpus.Generate(spec, seed)
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
		c := from + (to-from)*frac
		if sigma > 0 {
			c *= math.Exp(r.NormFloat64() * sigma)
		}
		if c < 0.05 {
			c = 0.05
		}
		cx[i] = c
	}
	return &corpus.Profile{FS: fs, Complexity: cx}, nil
}
