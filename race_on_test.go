//go:build race

package lix

// raceEnabled reports whether the race detector is compiled in. The
// AllocsPerRun pins skip under -race: the detector makes sync.Pool drop
// items at random, so pooled paths legitimately allocate there.
const raceEnabled = true
