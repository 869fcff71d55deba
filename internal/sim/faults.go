package sim

import (
	"sync"
	"sync/atomic"

	"sherman/internal/transport"
)

// Crash is the panic value raised when a client thread of a failed compute
// server touches the fabric. The one-sided design makes the *client* the unit
// of failure (no memory-server CPU participates in the data path), so a
// compute-server crash is modeled as every one of its threads aborting at its
// next fabric verb: verbs issued before the crash point are fully applied,
// the crashing verb and everything after it have no effect. Higher layers
// (the session API, the bench harness) recover the panic at the thread
// boundary and surface a typed error.
//
// The type is shared with every other transport backend (an alias of
// transport.Crash), so crash recovery in the session layer works identically
// over a real network.
type Crash = transport.Crash

// IsCrash reports whether a recovered panic value is a compute-server crash.
func IsCrash(v any) (Crash, bool) {
	return transport.IsCrash(v)
}

// Faults is the deterministic fault injector of one fabric. All client
// threads consult it at every fabric verb; faults are armed by verb index or
// by virtual time, so a given schedule reproduces exactly on a
// single-threaded victim (and up to goroutine interleaving on a
// multi-threaded one).
//
// The fault-free path (nothing armed anywhere, CS alive) takes no lock:
// OnVerb checks the CS's incarnation word, counts the verb and raises the
// lease anchor with atomics, and Alive and MSAlive are one atomic load
// each. Everything else — arming, kills, restarts, partitions, degrades and
// every verb while any of them is armed — runs under mu as before. In a
// CPU profile of a single-client simulator run (sim-mixed-d8), the
// mutex-guarded gate (OnVerb plus Alive) cost ~4 % of samples, as much as
// every Resource.Acquire of the run together; lock-free, OnVerb is ~0.5 %
// and Alive inlines into its callers as one load and compare.
type Faults struct {
	mu      sync.Mutex
	cs      []csFault
	ms      []msFault
	msArmed int // servers with an armed kill; keeps OnVerb's scan gated

	// armed sends every verb to the locked path while any fault other than
	// a plain kill is armed: a verb- or time-indexed kill of any server, a
	// degrade or a partition. rearm recomputes it under mu.
	armed atomic.Bool
	// msDead is a copy-on-write snapshot of the memory servers' dead flags
	// for MSAlive, republished under mu when a server dies.
	msDead atomic.Pointer[[]bool]

	onDeath   []func(cs int, deathV int64)
	onMSDeath []func(ms int, deathV int64)
	onRestart []func(cs int)

	// lifecycle serializes a death (flag + listener sweep) against
	// restarts: without it, a restart racing an in-flight death sweep
	// could revive the server — and admit new-incarnation lock holders —
	// while the sweep is still orphaning slots it attributes to the dead
	// incarnation, letting it steal a live holder's lock.
	lifecycle sync.Mutex
}

// csFault is the fault state of one compute server. The atomics are read
// without mu; every write to state, and every other field, is under mu.
type csFault struct {
	state     atomic.Int64 // epoch<<1 | dead; Restart bumps the epoch, so clients of older epochs stay dead
	verbs     atomic.Int64 // fabric verbs issued by this CS since creation
	deathV    atomic.Int64 // lease anchor: latest virtual time the CS could have issued a verb
	killAtN   int64        // kill when verbs reaches this count (0 = disarmed)
	killAtV   int64        // kill at the first verb at/after this virtual time (0 = disarmed)
	degradeNS int64        // extra per-verb issue delay (degraded NIC)
	healAtV   int64        // partition: verbs before this virtual time stall until it
}

// live is the state word of a running incarnation.
func live(epoch int64) int64 { return epoch << 1 }

func (s *csFault) epoch() int64 { return s.state.Load() >> 1 }
func (s *csFault) dead() bool   { return s.state.Load()&1 != 0 }

// raise lifts the anchor to v unless it is already at or past it.
func raise(anchor *atomic.Int64, v int64) {
	for {
		cur := anchor.Load()
		if v <= cur || anchor.CompareAndSwap(cur, v) {
			return
		}
	}
}

// msFault is the fault state of one memory server. Unlike a compute-server
// crash — which aborts the issuing threads — a memory-server death is
// silent on the client side: verbs targeting the dead server's memory
// simply stop taking effect (reads return zeros, writes and atomics are
// discarded), which is exactly what a one-sided client observes when the
// remote NIC vanishes. Death takes effect at verb granularity: the verb
// whose issue triggers an armed kill already sees the server dead.
type msFault struct {
	dead     bool
	deathV   int64 // latest virtual time any verb had reached when it died
	killAtCS int   // armed verb-indexed kill: trigger on this CS's counter
	killAtN  int64 // ... when it reaches this count (0 = disarmed)
	killAtV  int64 // kill at the first verb (any CS) at/after this time (0 = disarmed)
}

func (s *msFault) armed() bool { return s.killAtN != 0 || s.killAtV != 0 }

// NewFaults creates the injector for numCS compute servers, with no faults
// armed.
func NewFaults(numCS int) *Faults {
	return &Faults{cs: make([]csFault, numCS)}
}

// rearm recomputes the armed flag after a fault was armed or cleared.
// Callers hold f.mu.
func (f *Faults) rearm() {
	armed := f.msArmed > 0
	for i := range f.cs {
		s := &f.cs[i]
		armed = armed || s.killAtN != 0 || s.killAtV != 0 || s.degradeNS != 0 || s.healAtV != 0
	}
	f.armed.Store(armed)
}

// ensureMS grows the memory-server table to cover ms. Callers hold f.mu.
// The fabric adds servers dynamically (scale-out), so the table grows
// lazily rather than being sized at creation.
func (f *Faults) ensureMS(ms int) *msFault {
	for len(f.ms) <= ms {
		f.ms = append(f.ms, msFault{})
	}
	return &f.ms[ms]
}

// OnDeath registers a listener invoked synchronously (on the crashing
// thread, before it unwinds) when a compute server dies. Lock managers use
// it to mark orphaned lock slots and wake doomed waiters.
func (f *Faults) OnDeath(fn func(cs int, deathV int64)) {
	f.mu.Lock()
	f.onDeath = append(f.onDeath, fn)
	f.mu.Unlock()
}

// OnRestart registers a listener invoked when a compute server restarts.
func (f *Faults) OnRestart(fn func(cs int)) {
	f.mu.Lock()
	f.onRestart = append(f.onRestart, fn)
	f.mu.Unlock()
}

// KillAtVerb arms a crash at the CS's n-th fabric verb counted from now
// (n >= 1: the very next verb). The property tests sweep n across every verb
// of an operation.
func (f *Faults) KillAtVerb(cs int, n int64) {
	f.mu.Lock()
	f.cs[cs].killAtN = f.cs[cs].verbs.Load() + n
	f.rearm()
	f.mu.Unlock()
}

// KillAtTime arms a crash at the CS's first fabric verb at or after virtual
// time v. The fault benchmark uses it to land kills mid-window.
func (f *Faults) KillAtTime(cs int, v int64) {
	f.mu.Lock()
	f.cs[cs].killAtV = v
	f.rearm()
	f.mu.Unlock()
}

// Kill fails the CS immediately: its threads abort at their next fabric
// verb. nowV seeds the lease anchor (use the caller's best bound on the CS's
// clocks; the injector keeps the max of it and every verb time it has seen).
// Kill returns only after the death listeners (the lock managers' orphan
// sweeps) have completed.
func (f *Faults) Kill(cs int, nowV int64) {
	f.kill(cs, -1, nowV)
}

// kill marks the CS dead and runs the death listeners under the lifecycle
// lock. epoch >= 0 restricts the kill to that incarnation (armed kills must
// not fire on a restarted server they raced); -1 kills unconditionally.
func (f *Faults) kill(cs int, epoch int64, nowV int64) {
	f.lifecycle.Lock()
	defer f.lifecycle.Unlock()
	f.mu.Lock()
	s := &f.cs[cs]
	if s.dead() || (epoch >= 0 && s.epoch() != epoch) {
		f.mu.Unlock()
		return
	}
	s.state.Store(s.state.Load() | 1)
	s.killAtN, s.killAtV = 0, 0
	f.rearm()
	// A lock-free verb that passed its liveness check before the store
	// above re-checks after raising the anchor, so every verb that returns
	// ok is in deathV by now.
	raise(&s.deathV, nowV)
	deathV := s.deathV.Load()
	listeners := f.onDeath // header copy; registration appends never mutate it
	f.mu.Unlock()
	for _, fn := range listeners {
		fn(cs, deathV)
	}
}

// OnMSDeath registers a listener invoked synchronously when a memory server
// dies, before the triggering verb (if any) proceeds. The fabric uses the
// first slot to gate the dead server's memory; the cluster layer promotes
// replicas. Listeners run in registration order.
func (f *Faults) OnMSDeath(fn func(ms int, deathV int64)) {
	f.mu.Lock()
	f.onMSDeath = append(f.onMSDeath, fn)
	f.mu.Unlock()
}

// KillMS fails memory server ms immediately: every subsequent verb touching
// its memory is a no-op (reads zero-fill, writes and atomics discard).
// Returns only after the death listeners (memory gating, replica
// promotion) have completed.
func (f *Faults) KillMS(ms int, nowV int64) {
	f.killMS(ms, nowV)
}

// KillMSAtCSVerb arms a kill of memory server ms at compute server cs's
// n-th fabric verb counted from now (n >= 1: the very next verb). The verb
// that trips the arm already observes the server dead, so the property
// tests sweep n across every verb of an operation to probe each
// intermediate state.
func (f *Faults) KillMSAtCSVerb(ms, cs int, n int64) {
	f.mu.Lock()
	s := f.ensureMS(ms)
	if !s.armed() && !s.dead {
		f.msArmed++
	}
	s.killAtCS, s.killAtN = cs, f.cs[cs].verbs.Load()+n
	f.rearm()
	f.mu.Unlock()
}

// KillMSAtTime arms a kill of memory server ms at the first fabric verb
// (any compute server's) at or after virtual time v. The replica benchmark
// uses it to land a memory-server death mid-window.
func (f *Faults) KillMSAtTime(ms int, v int64) {
	f.mu.Lock()
	s := f.ensureMS(ms)
	if !s.armed() && !s.dead {
		f.msArmed++
	}
	s.killAtV = v
	f.rearm()
	f.mu.Unlock()
}

// killMS marks the server dead and runs the MS-death listeners under the
// lifecycle lock, serialized against CS death sweeps and restarts so
// promotion never interleaves with an orphan sweep.
func (f *Faults) killMS(ms int, nowV int64) {
	f.lifecycle.Lock()
	defer f.lifecycle.Unlock()
	f.mu.Lock()
	s := f.ensureMS(ms)
	if s.dead {
		f.mu.Unlock()
		return
	}
	if s.armed() {
		f.msArmed--
	}
	s.dead = true
	s.killAtCS, s.killAtN, s.killAtV = 0, 0, 0
	f.rearm()
	if nowV > s.deathV {
		s.deathV = nowV
	}
	deathV := s.deathV
	dead := make([]bool, len(f.ms))
	for i := range f.ms {
		dead[i] = f.ms[i].dead
	}
	f.msDead.Store(&dead)
	listeners := f.onMSDeath // header copy; registration appends never mutate it
	f.mu.Unlock()
	for _, fn := range listeners {
		fn(ms, deathV)
	}
}

// MSAlive reports whether memory server ms is live. Servers beyond the
// table (never killed) are live.
func (f *Faults) MSAlive(ms int) bool {
	dead := f.msDead.Load()
	return dead == nil || ms < 0 || ms >= len(*dead) || !(*dead)[ms]
}

// MSDeathTime returns the dead server's death anchor — the latest virtual
// time any verb had reached when it died (0 if alive).
func (f *Faults) MSDeathTime(ms int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ms < 0 || ms >= len(f.ms) || !f.ms[ms].dead {
		return 0
	}
	return f.ms[ms].deathV
}

// Restart revives the CS under a new epoch. Clients created before the
// restart stay dead (their epoch no longer matches); the caller creates
// fresh ones. Restart listeners (lock managers resetting the CS's local
// tables) run synchronously, and the lifecycle lock orders the whole
// restart after any in-flight death sweep — no new-incarnation client can
// acquire anything while a sweep still attributes the server's locks to
// the dead incarnation.
func (f *Faults) Restart(cs int) {
	f.lifecycle.Lock()
	defer f.lifecycle.Unlock()
	f.mu.Lock()
	s := &f.cs[cs]
	s.state.Store(live(s.epoch() + 1))
	s.deathV.Store(0)
	s.killAtN, s.killAtV = 0, 0
	s.degradeNS, s.healAtV = 0, 0
	f.rearm()
	listeners := f.onRestart // header copy
	f.mu.Unlock()
	for _, fn := range listeners {
		fn(cs)
	}
}

// Degrade adds extraNS of issue delay to every subsequent verb of the CS — a
// NIC running hot or a flaky link retransmitting.
func (f *Faults) Degrade(cs int, extraNS int64) {
	f.mu.Lock()
	f.cs[cs].degradeNS = extraNS
	f.rearm()
	f.mu.Unlock()
}

// Partition stalls every verb the CS issues before virtual time healV until
// that time — a transient network partition that heals.
func (f *Faults) Partition(cs int, healV int64) {
	f.mu.Lock()
	f.cs[cs].healAtV = healV
	f.rearm()
	f.mu.Unlock()
}

// Epoch returns the CS's current incarnation.
func (f *Faults) Epoch(cs int) int64 { return f.cs[cs].epoch() }

// Dead reports whether the CS is currently failed.
func (f *Faults) Dead(cs int) bool { return f.cs[cs].dead() }

// DeathTime returns the failed CS's lease anchor — the latest virtual time
// at which it could have issued a verb (0 if alive).
func (f *Faults) DeathTime(cs int) int64 {
	s := &f.cs[cs]
	if !s.dead() {
		return 0
	}
	return s.deathV.Load()
}

// Alive reports whether a client of the given epoch on cs may issue verbs.
func (f *Faults) Alive(cs int, epoch int64) bool { return f.cs[cs].state.Load() == live(epoch) }

// Verbs returns the CS's fabric-verb count (for arming verb-indexed kills
// relative to the present).
func (f *Faults) Verbs(cs int) int64 { return f.cs[cs].verbs.Load() }

// LatestVerbV returns the latest virtual time any compute server has
// issued a verb at — a cluster-wide clock bound. Recovery anchors fresh
// client clocks here so measured recovery latency excludes catch-up
// through prior virtual activity.
func (f *Faults) LatestVerbV() int64 {
	var max int64
	for i := range f.cs {
		if v := f.cs[i].deathV.Load(); v > max {
			max = v
		}
	}
	return max
}

// OnVerb accounts one fabric verb issued by a client of the given epoch at
// virtual time nowV. It returns the virtual time the verb may start (>= nowV
// under partition) plus any degradation delay; ok=false means the client is
// dead (stale epoch, killed, or this very verb triggered an armed kill) and
// must abort by panicking with Crash — the verb has no effect.
func (f *Faults) OnVerb(cs int, epoch int64, nowV int64) (startV, delayNS int64, ok bool) {
	s := &f.cs[cs]
	if s.state.Load() != live(epoch) {
		return 0, 0, false
	}
	if f.armed.Load() {
		return f.onVerbArmed(cs, epoch, nowV)
	}
	s.verbs.Add(1)
	raise(&s.deathV, nowV) // track the lease anchor while alive
	if s.state.Load() != live(epoch) {
		// A kill or restart landed between the check and the count: the
		// verb belongs to a dead incarnation and has no effect.
		s.verbs.Add(-1)
		return 0, 0, false
	}
	return nowV, 0, true
}

// onVerbArmed is OnVerb while some fault is armed: the verb is accounted
// under mu, so an armed verb-indexed kill of a single-threaded victim fires
// at exactly its verb.
func (f *Faults) onVerbArmed(cs int, epoch int64, nowV int64) (startV, delayNS int64, ok bool) {
	f.mu.Lock()
	s := &f.cs[cs]
	if s.state.Load() != live(epoch) {
		f.mu.Unlock()
		return 0, 0, false
	}
	verbs := s.verbs.Add(1)
	raise(&s.deathV, nowV)
	if (s.killAtN != 0 && verbs >= s.killAtN) || (s.killAtV != 0 && nowV >= s.killAtV) {
		f.mu.Unlock()
		// The sweep runs under the lifecycle lock, pinned to this
		// incarnation (a racing Restart makes it a no-op; the thread still
		// aborts — its epoch is stale either way).
		f.kill(cs, epoch, nowV)
		return 0, 0, false
	}
	startV = nowV
	if s.healAtV > startV {
		startV = s.healAtV
	}
	delayNS = s.degradeNS
	var victims [4]int
	nv := 0
	if f.msArmed > 0 {
		// An armed memory-server kill trips on the verb that reaches its
		// trigger — this verb then already observes the server dead.
		for i := range f.ms {
			m := &f.ms[i]
			if m.dead || !m.armed() {
				continue
			}
			if (m.killAtN != 0 && m.killAtCS == cs && verbs >= m.killAtN) ||
				(m.killAtV != 0 && nowV >= m.killAtV) {
				if nv < len(victims) {
					victims[nv] = i
					nv++
				}
			}
		}
	}
	f.mu.Unlock()
	for i := 0; i < nv; i++ {
		// Unlike a CS crash, the issuing client survives: the verb proceeds
		// against the now-dead server and simply has no effect there.
		f.killMS(victims[i], nowV)
	}
	return startV, delayNS, true
}
