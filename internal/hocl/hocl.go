// Package hocl implements Sherman's hierarchical on-chip lock (§4.3): global
// lock tables (GLTs) stored in the on-chip device memory of memory-server
// NICs, and per-compute-server local lock tables (LLTs) with FIFO wait
// queues and a bounded lock-handover mechanism.
//
// A Manager is one of two kinds. A virtual manager (NewManager, over the
// simulated fabric) serializes each global lock through a slot so virtual
// time orders the grants; a remote manager (NewRemoteManager, over a real
// network) has only the physical lock word and a CAS retry loop. Write paths
// acquire through LockRead, which posts each of an acquisition's first
// DoorbellAttempts CASes together with the READ of the protected object as
// one doorbell — the acquire-side counterpart of Unlock's write-back +
// release doorbell (§4.5) — and trusts the bytes only of the attempt that
// won. Both kinds follow that one rule; the virtual manager knows from its
// slot which CAS wins, and bills the READ behind each attempt its spin
// model counts as lost.
//
// The package also implements every degraded configuration the paper
// ablates (Figure 16 and the +On-Chip / +Hierarchical steps of Figures 10
// and 11): host-memory lock tables, lockless-local spinning, local tables
// without wait queues, and wait queues without handover.
package hocl

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"sherman/internal/deploy"
	"sherman/internal/rdma"
	"sherman/internal/transport"
)

// DefaultLocksPerMS is the default GLT size. The paper packs 131,072
// 16-bit locks into the 256 KB of ConnectX-5 on-chip memory; the simulator
// defaults lower to keep per-CS local tables small in-process (see
// DESIGN.md §2), and accepts the full value via Config.
const DefaultLocksPerMS = 16384

// DefaultMaxHandover bounds consecutive intra-CS handovers so remote
// compute servers cannot starve (§4.3: MAX_DEPTH = 4). The paper fixes it
// and nothing here sweeps it (DESIGN.md §6).
const DefaultMaxHandover = 4

// Mode selects which parts of HOCL are active; the zero value is the FG-like
// baseline (host-memory locks, global CAS spinning, no local coordination).
type Mode struct {
	// OnChip stores GLTs in NIC on-chip device memory (16-bit masked-CAS
	// locks) instead of host memory (64-bit CAS locks behind PCIe).
	OnChip bool
	// Local enables per-CS local lock tables: a thread acquires the local
	// lock before issuing any remote CAS, eliminating intra-CS retry storms.
	Local bool
	// WaitQueue adds FIFO wait queues to local locks, providing
	// first-come-first-served fairness within a CS. Requires Local.
	WaitQueue bool
	// Handover lets a releasing thread pass the *global* lock directly to
	// the next local waiter, saving that waiter's remote acquisition round
	// trip. Requires WaitQueue.
	Handover bool
}

// Sherman is the full HOCL configuration.
func Sherman() Mode {
	return Mode{OnChip: true, Local: true, WaitQueue: true, Handover: true}
}

// Baseline is the FG-style RDMA spin lock: 64-bit CAS on host memory,
// release by WRITE, no CS-side coordination.
func Baseline() Mode { return Mode{} }

func (m Mode) validate() error {
	if m.WaitQueue && !m.Local {
		return fmt.Errorf("hocl: WaitQueue requires Local")
	}
	if m.Handover && !m.WaitQueue {
		return fmt.Errorf("hocl: Handover requires WaitQueue")
	}
	return nil
}

// Stats aggregates lock activity across all threads of a Manager.
type Stats struct {
	// Acquisitions counts successful lock acquisitions.
	Acquisitions atomic.Int64
	// Handovers counts acquisitions satisfied by intra-CS handover, which
	// skip the remote CAS entirely.
	Handovers atomic.Int64
	// GlobalRetries counts failed remote CAS attempts.
	GlobalRetries atomic.Int64
	// AcquireReads counts the CAS attempts that carried the READ of the
	// protected object in their doorbell (LockRead with doorbell set: an
	// acquisition's first DoorbellAttempts attempts, never a lease steal);
	// AcquireReadsWasted counts every one of them whose CAS lost, so the
	// bytes were discarded. Their difference is the acquisitions whose node
	// READ rode the winning CAS: the round trips the doorbell saved.
	AcquireReads       atomic.Int64
	AcquireReadsWasted atomic.Int64
	// LocalWaits counts acquisitions that had to wait for a local holder.
	LocalWaits atomic.Int64
	// MaxWaiters is the high-water mark of threads queued on one global
	// lock — the depth of the worst convoy (diagnostic for the §3.2.2
	// collapse).
	MaxWaiters atomic.Int64

	// LeaseExpiries counts lock slots orphaned by a compute-server crash
	// (holder died while holding the global lock); Reclaims counts the
	// expired-lease reclamations survivors performed — each frees one
	// orphaned slot by CASing the dead holder's stamp out of the lock word
	// after its lease ran out.
	LeaseExpiries atomic.Int64
	Reclaims      atomic.Int64

	// DeadWaiterKills counts queued waiters woken only to find their own
	// compute server dead (they abort without acquiring).
	DeadWaiterKills atomic.Int64
}

func (s *Stats) noteWaiters(n int) {
	v := int64(n)
	for {
		old := s.MaxWaiters.Load()
		if v <= old || s.MaxWaiters.CompareAndSwap(old, v) {
			return
		}
	}
}

// Config sizes a lock manager.
type Config struct {
	Mode Mode
	// LocksPerMS is the GLT size per memory server; 0 means
	// DefaultLocksPerMS.
	LocksPerMS int
}

// Manager owns the global lock tables of every memory server and the local
// lock tables of every compute server.
type Manager struct {
	mode       Mode
	locksPerMS int
	f          *rdma.Fabric // nil for a remote manager

	// virtual selects the acquisition protocol. A virtual manager (built by
	// NewManager over the simulated fabric) serializes each global lock
	// through its gslot so virtual-time ordering holds regardless of
	// goroutine scheduling, and requires clients to implement
	// transport.VirtualTimer. A remote manager (NewRemoteManager) has no
	// slot state at all: mutual exclusion is exactly the physical CAS on the
	// lock word, retried over the real network, with lease expiry measured
	// on the real clock.
	virtual bool

	// gltHostBase[ms] is the host-memory base offset of ms's lock table
	// when !mode.OnChip. On-chip GLTs start at on-chip offset 0.
	gltHostBase []uint64

	// llts[cs] is the CS's local lock table; nil when !mode.Local. Restart
	// replaces a dead CS's table with an empty one (resetCS), so
	// acquisitions and the death sweep load it atomically.
	llts []atomic.Pointer[localTable]

	// waiterPool recycles gwaiters: each waiter receives exactly one grant
	// on every wake path (release handoff, orphan promotion, death kill), so
	// after the receive nothing references it and its one-slot channel is
	// empty again — contended waits then allocate nothing in steady state.
	// localPool does the same for the lwaiters of local lock queues.
	waiterPool sync.Pool
	localPool  sync.Pool

	// slots.at(ms, idx) is the simulation state of GLT slot idx on server
	// ms; nil for a remote manager. A server's row of slots is allocated on
	// the first lock there (rows), so servers nobody locks on cost nothing.
	// Each slot serializes its global lock in virtual time. Worker
	// goroutines execute at unrelated real-time rates, so a raw real-time
	// CAS race would let a thread whose virtual clock is far in the future
	// snatch a lock from virtually-earlier waiters, dragging the lock's
	// timeline forward and billing laggards phantom retry storms.
	// Instead each slot tracks its holder and grants releases to the
	// virtually-earliest waiter, while the waiters pay — against the NIC
	// pipelines and atomic buckets — for every spin retry real hardware
	// would have issued during their wait (§3.2.2). Real mutual exclusion
	// and faithful virtual-time ordering both hold, independent of
	// goroutine scheduling.
	slots *rows[gslot]

	// Stats is safe to read after threads quiesce.
	Stats Stats
}

// gslot is the simulation state of one global lock.
type gslot struct {
	mu       sync.Mutex
	held     bool
	holderCS int        // CS currently holding the lock (valid when held)
	deadCS   int        // holder's CS id + 1 when the holder crashed; 0 = live
	deadV    int64      // lease anchor of the dead holder (valid when deadCS != 0)
	relV     int64      // virtual time of the most recent release
	waiters  []*gwaiter // threads blocked on the held lock

	// Arrival history for convoy-depth estimation. Client goroutines run at
	// unrelated real-time speeds, so at any real instant the queue holds
	// only a few waiters even when — in virtual time — dozens of clients
	// are spinning on this lock (their wait windows overlap the lock's
	// timeline, which runs far ahead of the client population under
	// contention). The virtual convoy depth is therefore estimated from
	// the observed arrival rate: V = queued + rate x (lock lead over the
	// newest arrival).
	arrivals    [16]int64 // ring of recent arrival clocks
	ai          int       // next ring index
	acount      int       // samples recorded (saturates at ring size)
	lastArrival int64     // newest arrival clock seen
}

// noteArrival records a waiter's clock for rate estimation. Caller holds mu.
func (s *gslot) noteArrival(clock int64) {
	s.arrivals[s.ai] = clock
	s.ai = (s.ai + 1) % len(s.arrivals)
	if s.acount < len(s.arrivals) {
		s.acount++
	}
	if clock > s.lastArrival {
		s.lastArrival = clock
	}
}

// convoyDepth estimates how many clients are virtually spinning on the lock
// at virtual time rel, bounded by the client population (each client has at
// most one command in flight). Caller holds mu.
func (s *gslot) convoyDepth(rel int64, maxClients int) int {
	v := len(s.waiters)
	if s.acount == len(s.arrivals) {
		oldest := s.arrivals[s.ai] // ring is full: next slot holds the oldest
		if span := s.lastArrival - oldest; span > 0 {
			rate := float64(s.acount-1) / float64(span) // arrivals per virtual ns
			if lead := rel - s.lastArrival; lead > 0 {
				v += int(rate * float64(lead))
			}
		}
	}
	if maxClients > 0 && v > maxClients {
		v = maxClients
	}
	return v
}

// gwaiter is one thread waiting for a global lock.
type gwaiter struct {
	clock int64      // the waiter's virtual clock at arrival
	cs    int        // the waiter's compute server
	ch    chan grant // receives the releaser's virtual release time
}

// newWaiter takes a recycled gwaiter from the pool (its channel is empty —
// every wake path sends exactly one grant, which the owner received before
// returning it) or builds a fresh one.
func (m *Manager) newWaiter(clock int64, cs int) *gwaiter {
	if v := m.waiterPool.Get(); v != nil {
		w := v.(*gwaiter)
		w.clock, w.cs = clock, cs
		return w
	}
	return &gwaiter{clock: clock, cs: cs, ch: make(chan grant, 1)}
}

// grant is the message a releaser passes to the waiter it wakes.
type grant struct {
	rel int64 // releaser's virtual release time
	// spinners is the number of threads still waiting at handoff. On real
	// hardware every spinner keeps one CAS permanently in flight, so the
	// NIC's atomic unit carries a backlog of ~spinners * service-time that
	// the winner's CAS must traverse before it can observe the released
	// lock (§3.2.2) — the mechanism behind Figure 2's collapse.
	spinners int

	// killed wakes a waiter whose own compute server died: it aborts
	// without acquiring. reclaim wakes a surviving waiter whose lock holder
	// died: ownership of the slot transfers, and the waiter performs the
	// lease-expiry reclamation against the dead holder's stamp (deadCS,
	// lease anchored at deadV).
	killed  bool
	reclaim bool
	deadCS  int
	deadV   int64
}

// NewManager builds the lock tables over fabric f. Host-memory GLTs reserve
// one chunk per memory server at setup time.
func NewManager(f *rdma.Fabric, cfg Config) *Manager {
	m := newManager(cfg)
	m.f, m.virtual = f, true
	// The tables' directories are sized for the fabric's memory-server
	// *capacity*, not its current count, so AddServer can attach servers
	// while clients hold and contend locks. Each server's row of the slot
	// table and of every local table is allocated on its first lock and
	// never moves.
	maxMS := f.MaxServers()
	m.gltHostBase = make([]uint64, maxMS)
	for _, s := range f.Servers() {
		m.wireServer(s)
	}
	if cfg.Mode.Local {
		m.llts = newLocalTables(len(f.CSs), maxMS, m.locksPerMS)
	}
	m.slots = newRows[gslot](maxMS, m.locksPerMS)
	// New servers are wired (on-chip capacity check, host GLT chunk) before
	// the fabric publishes them, so no client can lock an address on a
	// server whose GLT is not ready.
	f.OnAddServer(m.wireServer)
	// Failure wiring: a compute-server crash orphans every global lock it
	// holds (marked for lease-expiry reclamation) and strands its queued
	// waiters (woken and aborted); a restart resets the CS's local tables.
	f.Faults.OnDeath(m.noteDeath)
	f.Faults.OnRestart(m.resetCS)
	return m
}

// NewRemoteManager builds a lock manager for a real-network transport with
// numMS memory servers and numCS compute servers. There is no fabric and no
// slot arbitration: the physical lock word is the whole truth, acquired by a
// plain CAS retry loop. onChipSize is each server's on-chip capacity in
// bytes (checked against the GLT when Mode.OnChip); growHost reserves the
// host-memory GLT chunk on one server when !Mode.OnChip. faults is the
// deployment's injector: a compute-server crash aborts the server's queued
// local waiters and a restart gives it fresh local tables, as under
// NewManager. A dead holder's global lock word needs no sweep: the CAS loop
// steals it once its stamp has stood for a lease.
func NewRemoteManager(cfg Config, numMS, numCS, onChipSize int, growHost func(ms uint16) uint64, faults *deploy.Faults) *Manager {
	m := newManager(cfg)
	m.gltHostBase = make([]uint64, numMS)
	m.checkCapacity(onChipSize)
	if !cfg.Mode.OnChip {
		for ms := 0; ms < numMS; ms++ {
			m.gltHostBase[ms] = growHost(uint16(ms))
		}
	}
	if cfg.Mode.Local {
		m.llts = newLocalTables(numCS, numMS, m.locksPerMS)
		faults.OnDeath(func(cs int, _ int64) { killAll(m.llts[cs].Load()) })
		faults.OnRestart(m.resetCS)
	}
	return m
}

// newManager validates cfg and applies its defaults; both constructors
// start here.
func newManager(cfg Config) *Manager {
	if err := cfg.Mode.validate(); err != nil {
		panic(err)
	}
	return &Manager{
		mode:       cfg.Mode,
		locksPerMS: cmp.Or(cfg.LocksPerMS, DefaultLocksPerMS),
	}
}

// checkCapacity panics unless one memory server can hold its GLT: 2 B per
// lock in a NIC with onChipSize bytes of device memory, or 8 B per lock in
// one host-memory chunk.
func (m *Manager) checkCapacity(onChipSize int) {
	n := m.locksPerMS
	if !m.mode.OnChip {
		if n*8 > transport.DefaultChunkSize {
			panic(fmt.Sprintf("hocl: host GLT of %d locks exceeds one chunk", n))
		}
	} else if need := n * 2; need > onChipSize {
		panic(fmt.Sprintf("hocl: %d locks need %d B on-chip, NIC has %d B", n, need, onChipSize))
	}
}

// wireServer prepares one memory server's share of the lock tables: the
// on-chip capacity check, and — in host mode — the GLT chunk reservation.
// It runs at manager creation for existing servers and from the fabric's
// growth hook for scaled-out ones.
func (m *Manager) wireServer(s *rdma.Server) {
	m.checkCapacity(s.OnChipSize())
	if !m.mode.OnChip {
		m.gltHostBase[s.ID] = s.Grow()
	}
}

// index hashes a protected object's address into its GLT slot (§4.3, line 5
// of Figure 6). splitmix64 finalizer — fast and well mixed.
func (m *Manager) index(a transport.Addr) int {
	x := uint64(a)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(m.locksPerMS))
}

// gltAddr returns the global address of lock slot idx on server ms.
func (m *Manager) gltAddr(ms uint16, idx int) transport.Addr {
	if m.mode.OnChip {
		return transport.MakeOnChipAddr(ms, uint64(idx)*2)
	}
	return transport.MakeAddr(ms, m.gltHostBase[ms]+uint64(idx)*8)
}

// Guard is an acquired lock; pass it back to Unlock.
type Guard struct {
	m         *Manager
	ms        uint16
	idx       int
	gaddr     transport.Addr
	ll        *localLock
	handedOff bool // acquired via handover: global lock still held by this CS
	reclaimed bool // acquired by stealing a dead holder's expired lease
}

// HandedOver reports whether this acquisition skipped the remote CAS.
func (g Guard) HandedOver() bool { return g.handedOff }

// Reclaimed reports whether this acquisition stole the lock from a crashed
// holder after its lease expired. The caller must treat the protected
// object as suspect — the dead holder may have died between its write-backs
// — and re-validate it (the index layer's post-lock consistency-checked
// read does exactly that).
func (g Guard) Reclaimed() bool { return g.reclaimed }

// SameSlot reports whether the lock protecting the object at a is the very
// GLT slot g holds — the slot hashing of §4.3 maps every object of one
// memory server into a fixed table, so distinct nodes can alias. A holder
// may then modify the object at a under g without a second acquisition;
// batch executors use this to keep one guard across sibling leaves whose
// locks collide instead of paying release + re-acquire at the boundary.
func (m *Manager) SameSlot(g Guard, a transport.Addr) bool {
	return g.m == m && a.MS() == g.ms && m.index(a) == g.idx
}

// Lock acquires the exclusive lock protecting the object at addr, per the
// HOCL_Lock pseudo-code (Figure 6): local lock first (queueing locally under
// contention), then the remote lock in the GLT unless it was handed over.
func (m *Manager) Lock(c transport.Transport, addr transport.Addr) Guard {
	g, _ := m.lock(c, addr.MS(), m.index(addr), addr, nil)
	return g
}

// DoorbellAttempts is how many CAS attempts of one acquisition carry the
// acquire doorbell's READ (LockRead); later attempts are bare CASes, and an
// acquisition that wins with one reads after it. Every retry's READ costs
// the compute server's NIC one more outbound command and the memory server a
// node's payload, for nothing when it loses. Within a few attempts that
// buys a round trip off the hold; behind every spin of a convoy's long wait
// it feeds the wait itself. In the simulator's uniform put sweep at
// pipeline depth 8, where the compute servers' outbound pipelines run near
// their command rate, a READ behind every billed spin collapsed throughput
// from 44.8 to 1.3 Mops (p99 3.9 ms), behind the first 4 it held 44.8, and
// behind the first 8 it fell to 20.3.
const DoorbellAttempts = 4

// LockRead is Lock for a caller whose first act under the lock is to read
// the object at addr into buf — every tree write. With doorbell set, each of
// the acquisition's first DoorbellAttempts CASes on the GLT slot carries
// that READ in its doorbell (the acquire doorbell: transport.CASRead),
// retries included, and read reports that the acquisition was won by such a
// CAS, so buf holds the object as of the acquisition and the caller need
// only validate it. What a losing attempt fetched may be another holder's
// half-applied write-back: it is counted in Stats.AcquireReadsWasted and
// overwritten by the next attempt's READ, never handed back. read is false
// — the caller reads for itself, as after Lock — when no CAS was sent
// (handover), the winning CAS came after DoorbellAttempts lost ones, the
// lock was stolen from an expired lease (the steal is a bare CAS), or
// doorbell is off.
func (m *Manager) LockRead(c transport.Transport, addr transport.Addr, buf []byte, doorbell bool) (g Guard, read bool) {
	if !doorbell {
		buf = nil
	}
	return m.lock(c, addr.MS(), m.index(addr), addr, buf)
}

// LockIdx acquires GLT slot idx on server ms directly, bypassing hashing.
// The lock microbenchmarks (Figures 2 and 16) use it to place exactly N
// distinct locks.
func (m *Manager) LockIdx(c transport.Transport, ms uint16, idx int) Guard {
	g, _ := m.lock(c, ms, idx, transport.NilAddr, nil)
	return g
}

// lock is the one acquisition path; a non-nil buf asks for the object at
// addr to be read by the acquiring CAS's doorbell (see LockRead).
func (m *Manager) lock(c transport.Transport, ms uint16, idx int, addr transport.Addr, buf []byte) (g Guard, read bool) {
	g = Guard{m: m, ms: ms, idx: idx, gaddr: m.gltAddr(ms, idx)}
	if m.mode.Local {
		ll := m.llts[c.CSID()].Load().at(ms, idx)
		g.ll = ll
		g.handedOff = ll.acquire(c, m)
		if g.handedOff {
			m.Stats.Handovers.Add(1)
			m.Stats.Acquisitions.Add(1)
			return g, false
		}
	}
	if m.virtual {
		g.reclaimed, read = m.acquireGlobal(c, g.gaddr, addr, buf, m.slots.at(ms, idx))
	} else {
		g.reclaimed, read = m.acquireGlobalRemote(c, g.gaddr, addr, buf)
	}
	m.Stats.Acquisitions.Add(1)
	return g, read
}

// acquireGlobal acquires the GLT slot: it claims the slot's simulation state
// (queueing behind the current holder when necessary), pays the spin retries
// real hardware would have issued while the lock was held, and then flips
// the physical lock word from 0 to this CS's identifier (+1 so an id of zero
// is distinguishable from "unlocked") with one RDMA_CAS. When the current
// holder crashed, the caller instead becomes the slot's reclaimer and steals
// the lock after the dead holder's lease expires; reclaimed reports that
// case.
//
// A non-nil buf is the acquire doorbell's READ of addr, decided by the remote
// arm's rule: each of the first DoorbellAttempts CASes carries it, and only
// the one that wins may be trusted. The slot says which CAS that is. A free
// slot whose previous virtual hold is over is won by the first CAS. A thread
// that queues and is granted the slot, or spins out the rest of a hold,
// wins with the CAS after its n billed spins; each billed spin is a lost
// attempt, whose READ is billed too when it is one of the first
// DoorbellAttempts (chargeSpin). The winning CAS is the doorbell and
// returns read when n < DoorbellAttempts.
func (m *Manager) acquireGlobal(c transport.Transport, gaddr, addr transport.Addr, buf []byte, s *gslot) (reclaimed, read bool) {
	vt := c.(transport.VirtualTimer)
	svc := vt.AtomicSvcNS(gaddr)
	var spinners int
	var rel int64
	s.mu.Lock()
	// The dead-CS sweep (noteDeath) and this queueing decision serialize on
	// s.mu, and the injector marks a CS dead before the sweep runs — so a
	// thread of a dying CS either queues early enough for the sweep to
	// abort it, or observes its own death here and aborts itself. Either
	// way no doomed waiter is ever stranded in the queue.
	if !c.Alive() {
		s.mu.Unlock()
		panic(transport.Crash{CS: int(c.CSID())})
	}
	if s.held {
		if s.deadCS != 0 {
			// Orphaned slot with no reclaimer yet: take over directly.
			deadV := s.deadV
			s.deadCS, s.deadV = 0, 0
			s.holderCS = int(c.CSID())
			s.mu.Unlock()
			m.reclaim(c, gaddr, deadV, addr, buf)
			return true, false
		}
		// Queue on the slot; the releaser grants to the virtually-earliest
		// waiter and passes its release timestamp along.
		w := m.newWaiter(c.Now(), int(c.CSID()))
		s.waiters = append(s.waiters, w)
		s.noteArrival(w.clock)
		m.Stats.noteWaiters(len(s.waiters))
		s.mu.Unlock()
		g := <-w.ch
		m.waiterPool.Put(w) // single grant received; no one else holds w
		if g.killed {
			m.Stats.DeadWaiterKills.Add(1)
			panic(transport.Crash{CS: int(c.CSID())})
		}
		if !c.Alive() {
			// Granted ownership in the race window between the releaser's
			// handoff and this CS's death sweep (the sweep can no longer see
			// us — we left the queue). Re-orphan the slot so a survivor
			// reclaims it, instead of leaking it held forever. The lease
			// anchor keeps the latest of our clock, the releaser's, and —
			// for an inherited orphan — the original holder's death.
			deathV := g.rel
			if g.deadV > deathV {
				deathV = g.deadV
			}
			if now := c.Now(); now > deathV {
				deathV = now
			}
			m.orphanSlot(s, int(c.CSID()), deathV)
			panic(transport.Crash{CS: int(c.CSID())})
		}
		if g.reclaim {
			m.reclaim(c, gaddr, g.deadV, addr, buf)
			return true, false
		}
		rel, spinners = g.rel, g.spinners
	} else {
		rel = s.relV
		s.held = true
		s.holderCS = int(c.CSID())
		s.mu.Unlock()
		if buf != nil && rel <= c.Now() {
			// Free in virtual time too: the first CAS wins, and its
			// doorbell's READ is valid under the lock.
			if _, ok := m.casWord(c, gaddr, 0, uint64(c.CSID())+1, addr, buf); !ok {
				panic(errLostSlot)
			}
			m.Stats.AcquireReads.Add(1)
			return false, true
		}
		// The lock is free in real time, but the previous virtual hold
		// window may extend past our clock; spin through the remainder.
	}
	// Pay the spin retries of the wait: one CAS in flight at all times,
	// each completing only after the convoy's queued commands drain
	// (§3.2.2), so the retry cadence stretches with the convoy.
	backlog := int64(spinners) * svc
	n := m.chargeSpin(c, gaddr, rel, c.Timing().RTTNS+svc+backlog, addr, buf)

	// The winning CAS, behind the convoy's backlog: with a doorbell its READ
	// is the queue pair's next command, executed once the CAS has won.
	id := uint64(c.CSID()) + 1
	postAt := c.Now()
	var ok bool
	if m.mode.OnChip {
		_, ok = vt.CAS16Backlog(gaddr, 0, uint16(id), backlog)
	} else {
		_, ok = vt.CASBacklog(gaddr, 0, uint64(id), backlog)
	}
	if !ok {
		panic(errLostSlot)
	}
	if buf == nil || n >= DoorbellAttempts {
		return false, false
	}
	c.AdvanceTo(m.f.ReadBehind(c, postAt, c.Now(), gaddr, addr, buf))
	m.Stats.AcquireReads.Add(1)
	return false, true
}

// errLostSlot is the virtual manager's invariant: a thread that owns a slot's
// simulation state finds the physical lock word free.
const errLostSlot = "hocl: winning CAS failed despite slot serialization"

// chargeSpin bills, on a virtual manager, the spin retries of a wait that
// ends at `to` (rdma.Fabric.ChargeSpin, from the thread's clock at the given
// cadence) and returns how many it billed. With buf set, the first
// DoorbellAttempts retries are lost acquire doorbells, so their READs of
// addr are billed too and counted wasted.
func (m *Manager) chargeSpin(c transport.Transport, gaddr transport.Addr, to, cadence int64, addr transport.Addr, buf []byte) int {
	reads := 0
	if buf != nil {
		reads = DoorbellAttempts
	}
	n := m.f.ChargeSpin(c, gaddr, c.Now(), to, cadence, addr, len(buf), reads)
	m.Stats.GlobalRetries.Add(int64(n))
	if w := int64(min(n, reads)); w > 0 {
		m.Stats.AcquireReads.Add(w)
		m.Stats.AcquireReadsWasted.Add(w)
	}
	return n
}

// acquireGlobalRemote is the real-network acquisition: a plain CAS retry
// loop on the physical lock word, exactly the spin real hardware performs
// (§3.2.2's collapse under contention happens for real here — there is no
// model to bill, the retries themselves are the cost). A stamp that stays
// unchanged for a full lease is treated as a crashed holder's and stolen,
// mirroring the simulator's lease-expiry reclamation on the real clock.
//
// A non-nil buf rides the first DoorbellAttempts attempts as the acquire
// doorbell's READ of addr (never the lease steal); read reports that an
// attempt carrying it won. A losing attempt's bytes are overwritten by the
// next attempt's, or by the caller's own read after a later bare win. A
// winning CAS's READ is valid because both ends of the critical section are
// in-order doorbells: the previous holder's write-back precedes its release
// WRITE on its queue pair, and our READ follows our CAS on ours, so a CAS
// that saw the release is followed by a READ that sees the write-back.
func (m *Manager) acquireGlobalRemote(c transport.Transport, gaddr, addr transport.Addr, buf []byte) (reclaimed, read bool) {
	id := uint64(c.CSID()) + 1
	lease := c.Timing().LeaseNS
	var stamp uint64 // last observed holder stamp
	var since int64  // real time the stamp was first observed
	for retries := 0; ; retries++ {
		c.CheckAlive()
		if retries > 0 {
			m.Stats.GlobalRetries.Add(1)
		}
		if retries == DoorbellAttempts {
			buf = nil
		}
		prev, ok := m.casWord(c, gaddr, 0, id, addr, buf)
		if buf != nil {
			m.Stats.AcquireReads.Add(1)
			if !ok {
				m.Stats.AcquireReadsWasted.Add(1)
			}
		}
		if ok {
			return false, buf != nil
		}
		if prev != stamp {
			stamp, since = prev, c.Now()
			continue
		}
		if lease > 0 && stamp != 0 && c.Now()-since > lease {
			// The same holder stamp has survived a full lease with no
			// release: treat the holder as dead and steal the word. A losing
			// steal means another reclaimer (or a late release) moved it —
			// restart the observation window on whatever is there now.
			if _, ok = m.casWord(c, gaddr, stamp, id, addr, nil); ok {
				m.Stats.Reclaims.Add(1)
				return true, false
			}
			stamp, since = 0, 0
		}
	}
}

// casWord issues one CAS of the physical lock word at gaddr from old to id in
// the table's width, as an acquire doorbell carrying the READ of buf at addr
// when buf is non-nil.
func (m *Manager) casWord(c transport.Transport, gaddr transport.Addr, old, id uint64, addr transport.Addr, buf []byte) (uint64, bool) {
	switch {
	case m.mode.OnChip && buf != nil:
		prev, ok := c.CAS16Read(gaddr, uint16(old), uint16(id), addr, buf)
		return uint64(prev), ok
	case m.mode.OnChip:
		prev, ok := c.CAS16(gaddr, uint16(old), uint16(id))
		return uint64(prev), ok
	case buf != nil:
		return c.CASRead(gaddr, old, id, addr, buf)
	default:
		return c.CAS(gaddr, old, id)
	}
}

// reclaim frees an orphaned GLT slot whose holder crashed: the reclaimer —
// already owner of the slot's simulation state by promotion or takeover —
// spins out the remainder of the dead holder's lease, re-reads the lock
// word, and CASes whatever stamp it finds to its own. The observed stamp is
// not necessarily the last marked holder's: a chain of reclaimers can each
// die before their stealing CAS lands, so the word may carry the stamp of
// any crashed client in the chain — or 0, when a holder died between
// claiming the slot and stamping it. Cluster membership is local knowledge
// (pushed by the management plane), so the re-read plus the slot's
// exclusive simulation ownership guarantee the observed stamp belongs to a
// dead client. Reclamation counts as an acquisition; the caller holds the
// lock when it returns.
func (m *Manager) reclaim(c transport.Transport, gaddr transport.Addr, deadV int64, addr transport.Addr, buf []byte) {
	tm := c.Timing()
	svc := c.(transport.VirtualTimer).AtomicSvcNS(gaddr)
	// Until the lease runs out the reclaimer is just another spinner, whose
	// lost attempts carry the acquire doorbell's READ when buf is set.
	m.chargeSpin(c, gaddr, deadV+tm.LeaseNS, tm.RTTNS+svc, addr, buf)

	// Read-then-CAS, retried: a dead client's final posted verb can still
	// land (it passed its fault check before the crash flag rose) and
	// rewrite the word under our read — one more round trip resolves it.
	id := uint64(c.CSID()) + 1
	for attempt := 0; ; attempt++ {
		var swapped bool
		if m.mode.OnChip {
			var b [2]byte
			c.Read(gaddr, b[:])
			_, swapped = c.CAS16(gaddr, binary.LittleEndian.Uint16(b[:]), uint16(id))
		} else {
			var b [8]byte
			c.Read(gaddr, b[:])
			_, swapped = c.CAS(gaddr, binary.LittleEndian.Uint64(b[:]), id)
		}
		if swapped {
			break
		}
		if attempt >= 8 {
			panic("hocl: reclaim CAS livelocked despite slot serialization")
		}
	}
	m.Stats.Reclaims.Add(1)
}

// orphanSlot marks a slot held by a just-crashed CS for reclamation and
// promotes a surviving waiter if one is queued. It is the per-slot core of
// noteDeath, also invoked by a granted waiter that discovers its own death
// before issuing any verb (the death sweep could not see it: it had already
// left the queue).
func (m *Manager) orphanSlot(s *gslot, cs int, deathV int64) {
	s.mu.Lock()
	m.markOrphanLocked(s, cs, deathV)
	w, g := s.promoteLocked()
	s.mu.Unlock()
	if w != nil {
		w.ch <- g
	}
}

// markOrphanLocked records a dead holder on its slot — the single place the
// orphan invariant (deadCS stamp, lease anchor, expiry accounting) is
// written, shared by the death sweep and the granted-then-died path. Caller
// holds s.mu; no-op unless cs actually holds the slot un-orphaned.
func (m *Manager) markOrphanLocked(s *gslot, cs int, deathV int64) {
	if !s.held || s.holderCS != cs || s.deadCS != 0 {
		return
	}
	s.deadCS = cs + 1
	s.deadV = deathV
	m.Stats.LeaseExpiries.Add(1)
}

// popEarliestLocked removes and returns the virtually-earliest waiter, or
// nil when the queue is empty. Caller holds s.mu. Both handoff paths — a
// normal release and an orphan promotion — share this selection so the
// wakeup policy cannot diverge between them.
func (s *gslot) popEarliestLocked() *gwaiter {
	if len(s.waiters) == 0 {
		return nil
	}
	min := 0
	for j, w := range s.waiters {
		if w.clock < s.waiters[min].clock {
			min = j
		}
	}
	w := s.waiters[min]
	s.waiters[min] = s.waiters[len(s.waiters)-1]
	s.waiters = s.waiters[:len(s.waiters)-1]
	return w
}

// promoteLocked hands an orphaned held slot to its earliest waiter, who
// will perform the lease reclamation on its own clock. Caller holds s.mu;
// the returned grant must be sent after unlocking.
func (s *gslot) promoteLocked() (*gwaiter, grant) {
	if !s.held || s.deadCS == 0 {
		return nil, grant{}
	}
	w := s.popEarliestLocked()
	if w == nil {
		return nil, grant{}
	}
	g := grant{reclaim: true, deadCS: s.deadCS - 1, deadV: s.deadV}
	s.deadCS, s.deadV = 0, 0
	s.holderCS = w.cs
	return w, g
}

// noteDeath marks every global lock the dead CS holds for lease-expiry
// reclamation, aborts the dead CS's queued waiters (global and local), and
// promotes the earliest surviving waiter of each orphaned slot to reclaimer.
// It runs synchronously on the crashing thread before its panic unwinds.
//
// It sweeps only the rows already installed. A row installed after the
// sweep passed its server holds no state of the dead CS: the injector marks
// the CS dead before the sweep runs, and a thread checks Alive under the
// slot's mutex before it queues or takes the slot (acquireGlobal), so a
// thread of the dead CS that installs a row later aborts there.
func (m *Manager) noteDeath(cs int, deathV int64) {
	m.slots.each(func(s *gslot) {
		s.mu.Lock()
		// Abort waiters of the dead CS.
		var doomed []*gwaiter
		keep := s.waiters[:0]
		for _, w := range s.waiters {
			if w.cs == cs {
				doomed = append(doomed, w)
			} else {
				keep = append(keep, w)
			}
		}
		s.waiters = keep
		// Orphan the slot if the dead CS holds it, and hand it to the
		// earliest surviving waiter, which will perform the reclamation on
		// its own clock.
		m.markOrphanLocked(s, cs, deathV)
		reclaimer, g := s.promoteLocked()
		s.mu.Unlock()
		for _, w := range doomed {
			w.ch <- grant{killed: true}
		}
		if reclaimer != nil {
			reclaimer.ch <- g
		}
	})
	if m.mode.Local {
		killAll(m.llts[cs].Load())
	}
}

// resetCS gives a restarted CS an empty local lock table; the dead
// incarnation's global locks stay orphaned until survivors (including the
// new incarnation) reclaim them lazily.
func (m *Manager) resetCS(cs int) {
	if !m.mode.Local {
		return
	}
	m.llts[cs].Store(newRows[localLock](len(m.llts[cs].Load().dir), m.locksPerMS))
}

// releaseSlot records the virtual release time and hands the slot to the
// virtually-earliest waiter, if any. The physical lock word was already
// cleared by the caller's release WRITE, so the woken waiter's CAS finds it
// free. cs is the releasing thread's compute server: a releaser whose CS
// was declared dead while its final (already-checked) release verb was in
// flight may find the slot orphaned or already handed to a reclaimer — it
// must then keep its hands off; the reclamation path owns the slot.
func (m *Manager) releaseSlot(s *gslot, now int64, cs int) {
	s.mu.Lock()
	if !s.held || s.holderCS != cs {
		// Ownership moved to a reclaimer during the crash race; the
		// physical word is already 0 from our release WRITE and the
		// reclaimer's read-CAS loop absorbs it.
		s.mu.Unlock()
		return
	}
	if s.deadCS != 0 {
		// Marked orphaned, but the release actually completed: the lock is
		// cleanly free. Un-orphan and release normally.
		s.deadCS, s.deadV = 0, 0
	}
	s.relV = now
	if w := s.popEarliestLocked(); w != nil {
		spinners := s.convoyDepth(now, m.f.ClientCount())
		s.holderCS = w.cs
		s.mu.Unlock() // the slot stays held; ownership passes to w
		w.ch <- grant{rel: now, spinners: spinners}
		return
	}
	s.held = false
	s.mu.Unlock()
}

// Release WRITE payloads are all-zero and never mutated — the simulated
// verbs copy their buffers synchronously — so two shared package-level
// buffers serve every unlock in the process, allocation-free.
var (
	zeroOnChip = []byte{0, 0}
	zeroHost   = make([]byte, 8)
)

// releaseOp returns the WRITE command that clears the GLT slot (lock release
// by RDMA_WRITE, which is cheaper than RDMA_FAA — §5.1.2, [68]).
func (m *Manager) releaseOp(gaddr transport.Addr) transport.WriteOp {
	if m.mode.OnChip {
		return transport.WriteOp{Addr: gaddr, Data: zeroOnChip}
	}
	return transport.WriteOp{Addr: gaddr, Data: zeroHost}
}

// Unlock releases the lock, flushing the caller's pending dependent writes.
//
// When combine is true, the write-backs and (if no handover happens) the
// lock-release WRITE are posted as one doorbell batch on the node's QP — one
// round trip total (§4.5). When combine is false the writes are issued as
// separate signaled commands, each costing a round trip (the FG+ behavior).
//
// All writes in pending must target the same memory server as the lock;
// PostWrites enforces this. Writes to *other* servers (cross-MS split
// siblings) must be issued by the caller before Unlock, as in Figure 7.
func (m *Manager) Unlock(c transport.Transport, g Guard, pending []transport.WriteOp, combine bool) {
	if g.ll != nil {
		// Decide the handover before flushing, but do not hold the local
		// entry's mutex across the flush: flushing issues fabric verbs, and
		// a verb may abort the thread on a compute-server crash — the death
		// sweep must then be able to lock this entry to kill its waiters.
		// The decision stays valid: waiters cannot leave the queue, and a
		// waiter arriving between the decision and the release simply
		// misses this handover window (it re-acquires the global lock
		// itself, exactly as if it had arrived after the release).
		g.ll.mu.Lock()
		handover := m.mode.Handover && len(g.ll.queue) > 0 && g.ll.depth < DefaultMaxHandover
		if handover {
			g.ll.depth++
		} else {
			g.ll.depth = 0
		}
		g.ll.mu.Unlock()
		m.flush(c, g, pending, combine, !handover)
		g.ll.mu.Lock()
		g.ll.releaseLocked(c, c.Now())
		return
	}
	m.flush(c, g, pending, combine, true)
}

// flush issues the dependent writes and, when releaseGlobal is set, the GLT
// clear.
func (m *Manager) flush(c transport.Transport, g Guard, pending []transport.WriteOp, combine, releaseGlobal bool) {
	if combine {
		ops := pending
		if releaseGlobal {
			ops = append(ops, m.releaseOp(g.gaddr))
		}
		if len(ops) > 0 {
			c.PostWrites(ops...)
		}
	} else {
		for _, op := range pending {
			c.Write(op.Addr, op.Data)
		}
		if releaseGlobal {
			op := m.releaseOp(g.gaddr)
			c.Write(op.Addr, op.Data)
		}
	}
	if releaseGlobal && m.virtual {
		// Remote managers have no slot state: the release WRITE above
		// cleared the physical word, and that is the whole release.
		m.releaseSlot(m.slots.at(g.ms, g.idx), c.Now(), int(c.CSID()))
	}
}
