//go:build !race

package siggen

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
