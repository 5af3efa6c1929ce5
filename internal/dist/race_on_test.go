//go:build race

package dist

// raceEnabled reports whether this test binary was built with -race, under
// which sync.Pool drops some of what it is given.
const raceEnabled = true
