//go:build !race

package infer

// raceEnabled: see race_on_test.go.
const raceEnabled = false
