// Package transport defines the verb surface of the disaggregated fabric:
// the Transport interface every tree client runs over, the address/op/metric
// value types shared by all implementations, and the optional capability
// interfaces (VirtualTimer, AsyncVerbs, Parker) that expose backend-specific
// powers without the core ever type-switching on the implementation.
//
// Two implementations exist:
//
//   - internal/rdma: the simulated RDMA fabric with virtual time. It also
//     implements VirtualTimer, which carries the timing-model hooks
//     (OnTimeline, spin charging, atomic backlog arbitration) the
//     simulation's contention model needs.
//   - internal/transport/tcp: a real network. Memory servers are OS
//     processes (cmd/shermand) serving chunks, locks, and atomics over a
//     tagged multiplexed binary protocol; clients share one connection per
//     server with real clocks and map doorbell batches to coalesced frames.
//     It does not implement VirtualTimer — virtual-time hooks degrade to
//     synchronous no-ops — but it does implement AsyncVerbs, so pipelined
//     executors overlap real round trips, and Parker, so their threads'
//     posts leave together. Its synchronous Read, Write and PostWrites are
//     the AsyncVerbs posts awaited at once.
//
// Both implement the whole verb surface, the acquire doorbell included
// (CASRead/CAS16Read: a lock CAS and the dependent READ of the locked object
// in one round trip), and a tree write acquires through it on both unless its
// configuration is the paper's published three-verb write (DESIGN.md §4).
//
// To watch or interrupt a thread's verbs, wrap its Transport with
// internal/transport/tap: tap.Wrap reports every verb to one hook and keeps
// exactly the inner transport's capability set, so no decorator of its own
// has to forward the capability interfaces by hand.
//
// The package is dependency-free so both backends (and the packages between
// them and the tree) can share its types without import cycles. It is the
// one spelling of those types: above the backends only the simulator's own
// deployment, the experiments that drive its fabric directly and the virtual
// lock manager import internal/rdma (internal/deploy's TestImportBoundaries).
package transport

import "fmt"

// Transport is one client thread's connection to the fabric: the one-sided
// verb surface of §2/§4, the allocation RPC, a clock, and the topology
// queries the allocator and failover paths need. Implementations are owned
// by a single goroutine, exactly like the tree Handle built on top.
//
// A Transport whose compute server has crashed panics with Crash from any
// verb; Session.run recovers that into ErrSessionDead.
type Transport interface {
	// Read performs a one-sided read of len(buf) bytes at a.
	Read(a Addr, buf []byte)
	// ReadMulti posts all reads at once (doorbell batching when they share
	// a server, parallel fan-out otherwise) and waits for completion.
	ReadMulti(ops []ReadOp)
	// Write performs a one-sided write of data at a.
	Write(a Addr, data []byte)
	// PostWrites posts dependent writes as one doorbell batch (§4.5): all
	// ops must target one memory server and apply in order.
	PostWrites(ops ...WriteOp)
	// CAS is a one-sided 8-byte compare-and-swap returning the previous
	// value and whether the swap happened.
	CAS(a Addr, old, new uint64) (uint64, bool)
	// CAS16 is the masked 2-byte CAS used by on-chip lock words (§4.3).
	CAS16(a Addr, old, new uint16) (uint16, bool)
	// CASRead is the acquire doorbell: the CAS on lock and a READ of
	// len(buf) bytes at a, posted as two dependent commands on one queue
	// pair (§4.5's in-order delivery applied to the acquire side). Both
	// addresses must be on one memory server; the READ executes after the
	// CAS and fills buf whether or not the swap happened, so buf holds the
	// bytes as of the swap only when it did. One round trip, one 2-command
	// doorbell batch.
	CASRead(lock Addr, old, new uint64, a Addr, buf []byte) (uint64, bool)
	// CAS16Read is CASRead with the masked 2-byte CAS of on-chip lock words.
	CAS16Read(lock Addr, old, new uint16, a Addr, buf []byte) (uint16, bool)
	// FAA is a one-sided 8-byte fetch-and-add returning the old value.
	FAA(a Addr, delta uint64) uint64

	// GrowChunk asks memory server ms's allocation thread for one fresh
	// fixed-length chunk (§4.2.4) and returns its base host offset.
	GrowChunk(ms uint16) uint64

	// Now returns the clock: virtual nanoseconds on the simulator, real
	// monotonic nanoseconds on a network transport.
	Now() int64
	// Step charges d nanoseconds of local compute. Real transports treat
	// it as a no-op — local work takes whatever time it takes.
	Step(d int64)
	// AdvanceTo moves the clock forward to t if t is ahead. Real
	// transports treat it as a no-op; it exists so pipelined executors can
	// model completion-time waits without switching on the backend.
	AdvanceTo(t int64)

	// CSID identifies the compute server this client thread runs on.
	CSID() uint16
	// Epoch is the compute server's incarnation number (advances on
	// restart after a crash).
	Epoch() int64
	// Alive reports whether the compute server is still up.
	Alive() bool
	// CheckAlive panics with Crash if the compute server has died.
	CheckAlive()

	// NumMS is the number of memory servers currently in the cluster.
	NumMS() int
	// MSAlive reports whether memory server ms is reachable.
	MSAlive(ms int) bool

	// Metrics exposes the per-thread verb counters. The pointer is stable
	// for the transport's lifetime.
	Metrics() *Metrics
	// Timing exposes the transport's cost constants; real transports
	// return zeros for the virtual-only entries.
	Timing() Timing
}

// Pending identifies one in-flight asynchronous verb issued through
// AsyncVerbs. It indexes the transport's internal completion-slot table, so
// it is only meaningful against the transport that issued it.
type Pending int32

// AsyncVerbs is the optional capability interface of transports that can
// genuinely overlap round trips: a post returns as soon as the request is
// queued (or after waiting for room in the transport's outstanding window),
// the request is on the wire by the time every posting thread has blocked —
// at the caller's next blocking verb or Await when nothing else runs (see
// Parker) — and Await blocks until that request's response has been
// applied. The TCP transport implements it over tagged multiplexed
// connections; the simulator does not need it (virtual time overlaps round
// trips by accounting, not by I/O).
// Like every Transport method, these are single-goroutine: the owner issues
// and awaits its own pendings.
//
// Pipelined executors running on a real clock (VirtualTimer absent) use it
// to keep depth-N verbs in flight per memory server; when it too is absent
// they degrade to synchronous verbs.
type AsyncVerbs interface {
	// ReadAsync posts the read of len(buf) bytes at a. buf must stay
	// untouched until Await; dead-memory zero-fill is applied at Await time.
	ReadAsync(a Addr, buf []byte) Pending
	// PostWritesAsync posts one doorbell batch of dependent writes (the
	// async PostWrites: all ops on one memory server, applied in order).
	// The op data is captured at post time and may be reused immediately.
	PostWritesAsync(ops ...WriteOp) Pending
	// Await blocks until p's response has been applied (read buffers
	// filled, or dead-memory semantics applied) and releases p.
	Await(p Pending)
}

// Parker is the optional capability interface of transports whose posted
// requests leave in waves: the transport counts the client threads that are
// runnable and may still post, a thread about to block gives its count up,
// and the thread that takes the count to zero writes every thread's posted
// requests at once — §4.5's one doorbell for many coroutines' verbs, where
// the doorbell is a syscall. The transport sees its own blocking verbs; core
// code that parks or wakes a thread on anything else (a pipelined executor's
// tickets, a local lock queue) reports it here. A count that is too low only
// writes early; one that is too high strands requests nobody writes, so every
// Hand is matched by exactly one Park. The TCP transport implements it; the
// simulator does not, and core code holds it as a nillable field.
type Parker interface {
	// Held reports whether this thread holds a count.
	Held() bool
	// Park gives up this thread's count, if it holds one, before it blocks
	// or stops posting; when no counted thread is left it first writes
	// every posted request.
	Park()
	// Hand counts one more runnable thread: the one the caller is about to
	// wake, which then calls Take.
	Hand()
	// Take records that this thread holds the count another one handed it.
	Take()
}

// VirtualTimer is the optional capability interface of transports that run
// on a virtual clock. The simulator implements it; real transports do not,
// and callers must degrade gracefully (run the closure synchronously, skip
// the charge). Core code holds it as a nillable field — never a type switch
// on the concrete backend.
type VirtualTimer interface {
	// OnTimeline runs fn with the clock temporarily set to start and
	// returns the clock value fn reached; the ambient clock is restored
	// afterwards. Pipelined executors use it to run each operation on its
	// own timeline.
	OnTimeline(start int64, fn func()) int64
	// SetClock forces the clock to v (backwards allowed); benchmarks and
	// recovery use it to align a fresh thread with cluster time.
	SetClock(v int64)
	// AtomicSvcNS returns the NIC service time of one atomic targeting a.
	AtomicSvcNS(a Addr) int64
	// ChargeAtomic books the cost of one atomic command — NIC pipelines,
	// bucket serialization, a round trip, a failure count — without a
	// memory effect.
	ChargeAtomic(a Addr)
	// ChargeSpin books a failed-CAS retry spin on a across [from, to) at
	// the given cadence, charging fabric resources per retry, and returns
	// the number of retries charged.
	ChargeSpin(a Addr, from, to, cadence int64) int
	// CASBacklog is CAS with backlogNS of NIC-bucket queueing prepended —
	// the arbitration-aware variant the lock manager uses.
	CASBacklog(a Addr, old, new uint64, backlogNS int64) (uint64, bool)
	// CAS16Backlog is the 16-bit masked equivalent of CASBacklog.
	CAS16Backlog(a Addr, old, new uint16, backlogNS int64) (uint16, bool)
}

// Timing carries the cost constants core code folds into its own
// bookkeeping. Virtual transports fill every field; real transports report
// zeros for virtual-only entries (a zero WraparoundGuardNS disables the
// wraparound heuristic, a zero LocalStepNS makes Step free) and real
// durations where the concept still applies (LeaseNS).
type Timing struct {
	// RTTNS is the one-sided verb round-trip estimate.
	RTTNS int64
	// LocalStepNS is the cost of one local compute step (node search,
	// cache jump).
	LocalStepNS int64
	// LocalSpinNS is the polling cadence of a local lock spin.
	LocalSpinNS int64
	// PipelineIssueNS is the issue gap between pipelined operations.
	PipelineIssueNS int64
	// WraparoundGuardNS is §4.4's version-wraparound guard window; zero
	// disables the guard (real clocks never re-read the same version
	// within a wrap window).
	WraparoundGuardNS int64
	// LeaseNS is the liveness lease after which a crashed client's locks
	// become reclaimable.
	LeaseNS int64
}

// Grower is the raw, untimed allocation view of a cluster: topology plus
// direct chunk growth with no client context and no clock. Setup-time bulk
// loading runs over it; the simulated Fabric and the TCP client cluster both
// implement it.
type Grower interface {
	// NumMS is the number of memory servers.
	NumMS() int
	// MSAlive reports whether memory server ms is reachable.
	MSAlive(ms int) bool
	// GrowChunkRaw grows one chunk on ms and returns its base offset,
	// with no timing accounting.
	GrowChunkRaw(ms uint16) uint64
}

// Crash is the panic value thrown by a transport whose compute server has
// been killed: both fabrics gate every verb on the deployment's one fault
// injector (deploy.Faults) and throw it at a dead server's next verb. The
// session layer recovers it into ErrSessionDead.
type Crash struct {
	// CS is the dead compute server's id.
	CS int
}

// Error makes a Crash usable as an error value after recovery.
func (c Crash) Error() string { return fmt.Sprintf("transport: compute server %d crashed", c.CS) }

// IsCrash reports whether a recovered panic value is a compute-server crash.
func IsCrash(v any) (Crash, bool) {
	c, ok := v.(Crash)
	return c, ok
}
