//go:build !race

package lix

// raceEnabled reports whether the race detector is compiled in; see
// race_on_test.go for why the allocation pins skip under -race.
const raceEnabled = false
