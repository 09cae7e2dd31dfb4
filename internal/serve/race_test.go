//go:build race

package serve

// The race detector makes sync.Pool drop a random share of its Puts, so
// bounds that rely on pooled buffers being reused do not hold under it.
func init() { raceEnabled = true }
