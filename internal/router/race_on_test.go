//go:build race

package router

// raceBuild reports that the race detector is on: it changes what the
// host allocates, so allocation pins skip.
const raceBuild = true
