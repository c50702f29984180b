//go:build race

package vsait

// Under the race detector sync.Pool drops a random quarter of the buffers
// put back, so a warm pool is not warm and the warm-run allocation bound
// does not apply.
func init() { raceEnabled = true }
