//go:build race

package selfgo_test

// raceBuild reports that the race detector is on: single-goroutine
// oracles that cost minutes under it run their reduced form.
const raceBuild = true
