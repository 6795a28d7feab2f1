//go:build !race

package selfgo_test

// raceBuild: see race_on_test.go.
const raceBuild = false
