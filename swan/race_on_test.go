//go:build race

package swan_test

// raceEnabled: the race detector's own allocations make exact Mallocs
// comparisons meaningless, so those tests skip under it.
const raceEnabled = true
