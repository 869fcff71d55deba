package bench

import "testing"

// TestPutSteadyAllocsExactlyZero pins the alloc experiment's put_steady row
// at exactly zero: 20 measurements, each on a fresh fixture, all read no
// allocation at all. The runtime's own allocations must stay out of the
// measured run for that (see measureAlloc): a probe at two Ps that forces
// its GC between the warm-up and the measured run reads 0.0004 allocs/op
// here in about 1 run of `-exp alloc -quick` in 6.
func TestPutSteadyAllocsExactlyZero(t *testing.T) {
	if raceEnabled {
		t.Skip("20 fixtures take ~30 s under -race; the plain run pins the count")
	}
	var probe allocProbe
	for _, p := range allocProbes() {
		if p.name == "put_steady" {
			probe = p
		}
	}
	for i := range 20 {
		if allocs, bytes, _ := measureAlloc(probe); allocs != 0 {
			t.Errorf("measurement %d: put_steady read %.5f allocs/op (%.2f B/op), want exactly 0", i, allocs, bytes)
		}
	}
}
