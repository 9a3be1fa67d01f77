//go:build !race

package period

const raceEnabled = false
