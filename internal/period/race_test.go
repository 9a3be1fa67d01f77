//go:build race

package period

// raceEnabled reports whether the race detector is on: under it,
// sync.Pool drops a quarter of its Puts.
const raceEnabled = true
