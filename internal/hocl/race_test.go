//go:build race

package hocl

// raceEnabled reports a -race build: its sync.Pool drops a share of what is
// put back, so pooled paths allocate there.
const raceEnabled = true
