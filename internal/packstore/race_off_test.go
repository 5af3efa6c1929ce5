//go:build !race

package packstore

const raceEnabled = false
