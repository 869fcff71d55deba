package hocl

import (
	"runtime"
	"sync"
	"testing"

	"sherman/internal/transport"
)

// lockCrashing runs fn, reporting whether it aborted with a CS crash.
func lockCrashing(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := transport.IsCrash(r); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// TestReclaimOrphanedLock kills a lock holder and checks that a later
// arrival steals the lock after the lease expires, in every mode (covering
// both the 16-bit on-chip and 64-bit host lock word formats).
func TestReclaimOrphanedLock(t *testing.T) {
	for _, m := range allModes() {
		t.Run(m.name, func(t *testing.T) {
			f := testFabric(t, 1, 2)
			mgr := NewManager(f, Config{Mode: m.mode, LocksPerMS: 64})
			victim := f.NewClient(0)
			_ = mgr.LockIdx(victim, 0, 7) // acquired, never released
			f.Faults.Kill(0, victim.Now())
			if got := mgr.Stats.LeaseExpiries.Load(); got != 1 {
				t.Fatalf("lease expiries = %d, want 1", got)
			}
			// The dead client aborts at its next verb.
			if !lockCrashing(func() { victim.Read(0, make([]byte, 8)) }) {
				t.Fatal("dead client's verb did not abort")
			}

			surv := f.NewClient(1)
			g := mgr.LockIdx(surv, 0, 7)
			if !g.Reclaimed() {
				t.Fatal("survivor acquisition did not report reclamation")
			}
			if got := mgr.Stats.Reclaims.Load(); got != 1 {
				t.Fatalf("reclaims = %d, want 1", got)
			}
			if surv.Now() < f.P.LeaseNS {
				t.Fatalf("reclaim completed at %d ns, before the %d ns lease expired", surv.Now(), f.P.LeaseNS)
			}
			// The reclaimed lock must work normally afterwards.
			mgr.Unlock(surv, g, nil, true)
			g2 := mgr.LockIdx(surv, 0, 7)
			if g2.Reclaimed() {
				t.Fatal("clean re-acquisition reported reclamation")
			}
			mgr.Unlock(surv, g2, nil, true)
		})
	}
}

// TestReclaimPromotesQueuedWaiter kills a holder while a survivor is
// already queued on the lock: the death sweep must hand the orphan to the
// waiter rather than leaving it blocked forever.
func TestReclaimPromotesQueuedWaiter(t *testing.T) {
	f := testFabric(t, 1, 2)
	mgr := NewManager(f, Config{Mode: Baseline(), LocksPerMS: 64})
	victim := f.NewClient(0)
	_ = mgr.LockIdx(victim, 0, 3)

	type res struct {
		g  Guard
		ok bool
	}
	done := make(chan res, 1)
	var started sync.WaitGroup
	started.Add(1)
	go func() {
		surv := f.NewClient(1)
		started.Done()
		g := mgr.LockIdx(surv, 0, 3) // blocks behind the held lock
		done <- res{g, true}
		mgr.Unlock(surv, g, nil, true)
	}()
	started.Wait()
	// Wait until the survivor queues, then kill the holder.
	for mgr.Stats.MaxWaiters.Load() == 0 {
		runtime.Gosched()
	}
	f.Faults.Kill(0, victim.Now())
	r := <-done
	if !r.ok || !r.g.Reclaimed() {
		t.Fatalf("queued waiter not promoted to reclaimer (reclaimed=%v)", r.g.Reclaimed())
	}
}

// TestDeadWaitersAreAborted kills a CS whose thread is queued on a lock
// held by a survivor: the waiter must wake and abort instead of blocking
// the queue.
func TestDeadWaitersAreAborted(t *testing.T) {
	f := testFabric(t, 1, 2)
	mgr := NewManager(f, Config{Mode: Baseline(), LocksPerMS: 64})
	holder := f.NewClient(1)
	g := mgr.LockIdx(holder, 0, 5)

	crashed := make(chan bool, 1)
	go func() {
		doomed := f.NewClient(0)
		crashed <- lockCrashing(func() { _ = mgr.LockIdx(doomed, 0, 5) })
	}()
	// Wait until the doomed thread queues, then kill its CS.
	for mgr.Stats.MaxWaiters.Load() == 0 {
		runtime.Gosched()
	}
	f.Faults.Kill(0, 0)
	if !<-crashed {
		t.Fatal("dead waiter did not abort")
	}
	if got := mgr.Stats.DeadWaiterKills.Load(); got != 1 {
		t.Fatalf("dead waiter kills = %d, want 1", got)
	}
	mgr.Unlock(holder, g, nil, true)
}
