package bench

import "testing"

// TestPutSteadyAllocsExactlyZero pins the alloc experiment's put_steady row
// at exactly zero: 20 measurements, each on a fresh fixture, all read no
// allocation at all. The runtime's own allocations must stay out of the
// measured run for that (see measureAlloc): a probe at two Ps that forces
// its GC between the warm-up and the measured run reads 0.0004 allocs/op
// here in about 1 run of `-exp alloc -quick` in 6.
func TestPutSteadyAllocsExactlyZero(t *testing.T) { allocsExactlyZero(t, "put_steady") }

// TestExecMixedAllocsExactlyZero pins exec_mixed_d4 the same way. A slice
// built inside a probe's run escapes once per measured run, 0.0001
// allocs/op at 16,384 ops, which AllocGate's 0.01 budget does not see.
func TestExecMixedAllocsExactlyZero(t *testing.T) { allocsExactlyZero(t, "exec_mixed_d4") }

func allocsExactlyZero(t *testing.T, name string) {
	if raceEnabled {
		t.Skip("20 fixtures take ~30 s under -race; the plain run pins the count")
	}
	var probe allocProbe
	for _, p := range allocProbes() {
		if p.name == name {
			probe = p
		}
	}
	for i := range 20 {
		if allocs, bytes, _ := measureAlloc(probe); allocs != 0 {
			t.Errorf("measurement %d: %s read %.5f allocs/op (%.2f B/op), want exactly 0", i, name, allocs, bytes)
		}
	}
}
