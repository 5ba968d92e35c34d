//go:build race

package siggen

// raceEnabled reports a -race build. The detector makes compress/flate
// about 30× slower, so single-goroutine tests that are compression-bound
// and can find no race skip themselves under it.
const raceEnabled = true
