//go:build race

package cost_test

// Under the race detector sync.Pool drops a share of what is put back, so
// allocation counts are not meaningful.
func init() { raceEnabled = true }
