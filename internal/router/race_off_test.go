//go:build !race

package router

// raceBuild: see race_on_test.go.
const raceBuild = false
