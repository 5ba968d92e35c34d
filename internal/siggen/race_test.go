//go:build race

package siggen

// raceEnabled reports a -race build. Under the detector a compression
// costs about 60× more: the kernel itself is slower, and sync.Pool drops
// a quarter of what is put back, so every fourth compression allocates a
// fresh 700 KB state. Single-goroutine tests that are compression-bound
// and can find no race skip themselves under it.
const raceEnabled = true
