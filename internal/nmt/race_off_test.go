//go:build !race

package nmt

// raceEnabled: see race_on_test.go.
const raceEnabled = false
