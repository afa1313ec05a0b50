//go:build race

package core

// raceEnabled scales the element counts of the wake-protocol tests, which
// make wake-stress runs 60 times under the race detector.
const raceEnabled = true
