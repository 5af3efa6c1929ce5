package corpus

import "repro/internal/vfs"

// Profile is a corpus plus its per-file complexity factors. The paper's
// §5.2 closes on the observation that for corpora that are *not* uniform
// in language complexity, "random sampling can be vital to help capture
// the variation in text complexity" — a calibration taken from one region
// of the corpus misprices the rest. A Profile lets probes, models and
// plans reproduce that mechanism.
type Profile struct {
	FS *vfs.FS
	// Complexity holds each file's content complexity factor, in
	// FS.List() order.
	Complexity []float64
}
