//go:build race

package bench

// raceEnabled reports a -race build, which runs the allocation probes about
// 30 times slower.
const raceEnabled = true
