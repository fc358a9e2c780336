//go:build race

package core_test

// The race detector makes sync.Pool drop a share of what is put back,
// so pooled scratch allocates under -race by design.
func init() { raceEnabled = true }
