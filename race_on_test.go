//go:build race

package repro

// raceEnabled reports whether this test binary was built with -race; the
// end-to-end tests build the commands they drive the same way.
const raceEnabled = true
