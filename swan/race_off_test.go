//go:build !race

package swan_test

const raceEnabled = false
