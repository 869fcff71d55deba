package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFaultsKillAtVerb(t *testing.T) {
	f := NewFaults(2)
	for i := 0; i < 4; i++ {
		if _, _, ok := f.OnVerb(0, 0, int64(i)); !ok {
			t.Fatalf("verb %d refused with no fault armed", i)
		}
	}
	f.KillAtVerb(0, 3) // the 3rd verb from now
	for i := 0; i < 2; i++ {
		if _, _, ok := f.OnVerb(0, 0, 100); !ok {
			t.Fatalf("verb before the armed index refused")
		}
	}
	if _, _, ok := f.OnVerb(0, 0, 200); ok {
		t.Fatal("armed kill verb was allowed")
	}
	if !f.Dead(0) {
		t.Fatal("CS not dead after kill")
	}
	if f.DeathTime(0) != 200 {
		t.Fatalf("death anchor = %d, want 200", f.DeathTime(0))
	}
	if _, _, ok := f.OnVerb(0, 0, 300); ok {
		t.Fatal("dead CS issued a verb")
	}
	// The sibling CS is unaffected.
	if _, _, ok := f.OnVerb(1, 0, 0); !ok {
		t.Fatal("sibling CS refused")
	}
}

func TestFaultsKillAtTimeAndRestart(t *testing.T) {
	f := NewFaults(1)
	f.KillAtTime(0, 1000)
	if _, _, ok := f.OnVerb(0, 0, 999); !ok {
		t.Fatal("verb before the kill time refused")
	}
	if _, _, ok := f.OnVerb(0, 0, 1000); ok {
		t.Fatal("verb at the kill time allowed")
	}
	var deaths, restarts int
	f.OnDeath(func(cs int, deathV int64) { deaths++ })
	f.OnRestart(func(cs int) { restarts++ })
	f.Restart(0)
	if restarts != 1 {
		t.Fatalf("restart listeners ran %d times, want 1", restarts)
	}
	if f.Dead(0) {
		t.Fatal("CS dead after restart")
	}
	// Old-epoch clients stay dead; new-epoch clients work.
	if _, _, ok := f.OnVerb(0, 0, 2000); ok {
		t.Fatal("old-epoch client issued a verb after restart")
	}
	if _, _, ok := f.OnVerb(0, 1, 2000); !ok {
		t.Fatal("new-epoch client refused")
	}
	if !f.Alive(0, 1) || f.Alive(0, 0) {
		t.Fatal("epoch aliveness wrong after restart")
	}
	f.Kill(0, 5000)
	if deaths != 1 {
		t.Fatalf("death listeners ran %d times, want 1", deaths)
	}
}

func TestFaultsDegradeAndPartition(t *testing.T) {
	f := NewFaults(1)
	f.Degrade(0, 77)
	start, delay, ok := f.OnVerb(0, 0, 10)
	if !ok || start != 10 || delay != 77 {
		t.Fatalf("degraded verb = (%d,%d,%v), want (10,77,true)", start, delay, ok)
	}
	f.Partition(0, 500)
	start, _, ok = f.OnVerb(0, 0, 100)
	if !ok || start != 500 {
		t.Fatalf("partitioned verb starts at %d, want 500", start)
	}
	start, _, ok = f.OnVerb(0, 0, 600)
	if !ok || start != 600 {
		t.Fatalf("post-heal verb starts at %d, want 600", start)
	}
}

// TestFaultsGateRace drives the verb path of one compute server from
// several goroutines while another arms every kind of fault, kills the
// server and restarts it, round after round; a second server's verbs run
// throughout. Odd rounds disarm before the kill, so it races the lock-free
// path. Run it under -race.
func TestFaultsGateRace(t *testing.T) {
	const (
		issuers = 4
		rounds  = 40
	)
	f := NewFaults(2)
	var (
		clock  atomic.Int64 // unique, increasing verb times across issuers
		dead   atomic.Bool  // set by the death listener of CS 0
		anchor atomic.Int64 // the lease anchor the listener was handed
		bad    atomic.Int64 // ok verbs issued after the death listener ran
		okCS0  atomic.Int64
		late   atomic.Int64 // ok verbs later than the anchor
	)
	f.OnDeath(func(cs int, deathV int64) {
		if cs == 0 {
			anchor.Store(deathV)
			dead.Store(true)
		}
	})

	// other runs CS 1's verbs; round runs the current round's issuers. On a
	// failed check the cleanup kills CS 0 and stops CS 1, so no goroutine
	// outlives the test.
	var other, round sync.WaitGroup
	stop := make(chan struct{})
	halt := sync.OnceFunc(func() { close(stop) })
	defer func() {
		halt()
		f.Kill(0, 0)
		round.Wait()
		other.Wait()
	}()
	var okCS1 atomic.Int64
	other.Add(1)
	go func() { // CS 1: never killed, so every verb is ok
		defer other.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, ok := f.OnVerb(1, 0, clock.Add(1)); !ok {
				t.Error("verb of a live CS refused")
				return
			}
			okCS1.Add(1)
		}
	}()

	for r := 0; r < rounds; r++ {
		epoch := f.Epoch(0)
		dead.Store(false)
		maxOK := make([]int64, issuers)
		for d := 0; d < issuers; d++ {
			round.Add(1)
			go func(d int) {
				defer round.Done()
				for {
					after := dead.Load()
					v := clock.Add(1)
					if _, _, ok := f.OnVerb(0, epoch, v); !ok {
						return
					}
					okCS0.Add(1)
					if after {
						bad.Add(1)
					}
					maxOK[d] = v
				}
			}(d)
		}
		f.KillMSAtCSVerb(r, 0, 1)
		waitFor(t, "the armed memory-server kill", func() bool { return !f.MSAlive(r) })
		f.Partition(0, 1)
		f.Degrade(0, 7)
		if r%2 == 0 {
			f.KillAtVerb(0, 1<<40) // armed, never reached: the kill meets the locked path
		} else {
			f.Partition(0, 0)
			f.Degrade(0, 0) // disarmed: the kill races the lock-free path
			if f.armed.Load() {
				t.Fatalf("round %d: gate armed with every fault fired or cleared", r)
			}
		}
		v := f.Verbs(0)
		waitFor(t, "100 more verbs", func() bool { return f.Verbs(0) >= v+100 })
		f.Kill(0, 0)
		round.Wait()
		for _, v := range maxOK {
			if v > anchor.Load() {
				late.Add(1)
			}
		}
		if _, _, ok := f.OnVerb(0, epoch, clock.Add(1)); ok {
			t.Fatalf("round %d: a verb of the dead epoch returned ok", r)
		}
		f.Restart(0)
		if f.armed.Load() {
			t.Fatalf("round %d: gate still armed after restart with every kill fired", r)
		}
	}

	// A single-threaded victim's armed kill fires at exactly its verb, with
	// the other CS still issuing verbs.
	epoch := f.Epoch(0)
	for _, n := range []int64{1, 2, 7} {
		v0 := f.Verbs(0)
		f.KillAtVerb(0, n)
		i := int64(1)
		for ; i <= n+1; i++ {
			if _, _, ok := f.OnVerb(0, epoch, clock.Add(1)); !ok {
				break
			}
		}
		if i != n || f.Verbs(0)-v0 != n {
			t.Fatalf("KillAtVerb(%d) fired at verb %d (%d counted)", n, i, f.Verbs(0)-v0)
		}
		okCS0.Add(n - 1)
		f.Restart(0)
		epoch = f.Epoch(0)
	}
	halt()
	other.Wait()

	if n := bad.Load(); n != 0 {
		t.Errorf("%d verbs returned ok after their CS's death listener ran", n)
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d issuers' last ok verb is later than the lease anchor", n)
	}
	// The killing verb of each KillAtVerb counted itself, as verbs always did.
	if got, want := f.Verbs(0), okCS0.Load()+3; got != want {
		t.Errorf("CS 0 counted %d verbs, %d returned ok (+3 armed kills)", got, want-3)
	}
	if got, want := f.Verbs(1), okCS1.Load(); got != want {
		t.Errorf("CS 1 counted %d verbs, %d returned ok", got, want)
	}
}

// waitFor yields until cond holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}
