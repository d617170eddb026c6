//go:build race

package device

// raceEnabled reports whether the tests run under the race detector, which
// makes sync.Pool drop a random share of Puts: pooled allocation counts are
// exact only without it.
const raceEnabled = true
