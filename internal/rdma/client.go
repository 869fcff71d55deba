package rdma

import (
	"fmt"
	"runtime"

	"sherman/internal/sim"
)

// yield makes every verb a real scheduling point once the fabric has a
// second client. A verb spans microseconds of virtual time, so other client
// goroutines must get real CPU time inside it — otherwise critical sections
// (lock, read, write-back, release) would execute atomically in real time
// and lock conflicts could never be observed, no matter the contention. A
// lone client has no one to yield to, and its virtual time never depended
// on real-time scheduling, so it skips the scheduler. The count only rises:
// from the moment a second client exists, every verb yields.
func (c *Client) yield() {
	if c.F.ClientCount() > 1 {
		onYield()
	}
}

// onYield is the scheduling point itself; tests swap it to count yields.
var onYield = runtime.Gosched

// Client is one client thread's view of the fabric: a set of RC queue pairs
// (one per memory server, modeled implicitly), a virtual clock, and verb
// counters. A Client is owned by exactly one goroutine.
type Client struct {
	F  *Fabric
	CS *ComputeServer

	// Clk is the thread's virtual clock. Higher layers read it to timestamp
	// operations; verbs advance it.
	Clk sim.Clock

	// M accumulates verb-level metrics; the index layer snapshots the Op*
	// fields around each index operation.
	M Metrics

	// epoch is the compute server's incarnation at client creation; a
	// restart bumps it, so clients of a crashed-then-restarted CS stay dead.
	epoch int64
}

// NewClient creates a client thread context on compute server cs.
func (f *Fabric) NewClient(cs int) *Client {
	if cs < 0 || cs >= len(f.CSs) {
		panic(fmt.Sprintf("rdma: no compute server %d", cs))
	}
	f.clients.Add(1)
	return &Client{F: f, CS: f.CSs[cs], epoch: f.Faults.Epoch(cs)}
}

// Epoch returns the CS incarnation this client was created under.
func (c *Client) Epoch() int64 { return c.epoch }

// Alive reports whether this client may still issue verbs (its CS has not
// crashed since the client was created).
func (c *Client) Alive() bool { return c.F.Faults.Alive(int(c.CS.ID), c.epoch) }

// CheckAlive panics with sim.Crash when the client's compute server has
// failed. Verbs check implicitly; lock managers call it from verb-free spin
// and queue paths so a doomed thread cannot linger (or block peers) there.
func (c *Client) CheckAlive() {
	if !c.Alive() {
		panic(sim.Crash{CS: int(c.CS.ID)})
	}
}

// checkVerb gates one fabric verb on the injector: it aborts the thread when
// the CS is dead (or this verb triggers an armed kill), stalls the clock
// through a partition, and applies degradation delay. Called at verb entry,
// before any memory effect, so the crashing verb is never applied.
func (c *Client) checkVerb() {
	start, delay, ok := c.F.Faults.OnVerb(int(c.CS.ID), c.epoch, c.Clk.Now())
	if !ok {
		panic(sim.Crash{CS: int(c.CS.ID)})
	}
	c.Clk.AdvanceTo(start)
	c.Clk.Advance(delay)
}

// Now returns the thread's current virtual time.
func (c *Client) Now() int64 { return c.Clk.Now() }

// Step charges d nanoseconds of CS-local compute time.
func (c *Client) Step(d int64) { c.Clk.Advance(d) }

// OnTimeline runs fn with the client's clock repositioned to start and
// returns the virtual time at which fn's work completed, restoring the
// clock afterwards. It is the issue/complete split of the pipelined client:
// an async executor runs each outstanding operation on its own timeline,
// so a verb's round-trip latency overlaps its siblings' instead of
// serializing on the thread clock. The issue-side costs still serialize
// faithfully — every verb charges the shared CS outbound and MS inbound
// Resources at its own issue time regardless of which timeline it runs
// on, so one client's overlapping verbs contend for the NIC pipelines
// exactly as a real coroutine client's posted work requests do. The
// timelines stay within an operation latency of each other, well inside
// the Resource layer's out-of-order credit window (sim.CreditCapNS).
func (c *Client) OnTimeline(start int64, fn func()) (end int64) {
	saved := c.Clk.Now()
	c.Clk.Set(start)
	fn()
	end = c.Clk.Now()
	c.Clk.Set(saved)
	return end
}

func (c *Client) roundTrip() {
	c.M.RoundTrips++
	c.M.OpRoundTrips++
}

// Read fetches len(buf) bytes at a via RDMA_READ: one round trip, with the
// response payload charged at the memory server's NIC.
func (c *Client) Read(a Addr, buf []byte) {
	c.checkVerb()
	p := &c.F.P
	srv := c.F.Server(a)
	t := c.CS.Outbound.Acquire(c.Clk.Now(), p.OutboundMinNS)
	t = srv.Inbound.Acquire(t, p.PayloadNS(len(buf), p.InboundMinNS))
	srv.NoteInbound(a, 1)
	srv.read(a, buf)
	c.Clk.AdvanceTo(t + p.RTTNS)
	c.roundTrip()
	c.M.Reads++
	c.yield()
}

// ReadMulti issues the given reads in parallel (one command per target, all
// posted back-to-back) and returns when the slowest completes; this is how
// range queries fetch several leaves in one round-trip time (§4.4).
func (c *Client) ReadMulti(reqs []ReadOp) {
	if len(reqs) == 0 {
		return
	}
	c.checkVerb()
	p := &c.F.P
	var done int64
	t := c.Clk.Now()
	for _, r := range reqs {
		t = c.CS.Outbound.Acquire(t, p.OutboundMinNS)
		srv := c.F.Server(r.Addr)
		fin := srv.Inbound.Acquire(t, p.PayloadNS(len(r.Buf), p.InboundMinNS))
		srv.NoteInbound(r.Addr, 1)
		srv.read(r.Addr, r.Buf)
		if fin > done {
			done = fin
		}
	}
	c.Clk.AdvanceTo(done + p.RTTNS)
	c.roundTrip()
	c.M.Reads += int64(len(reqs))
	if len(reqs) > 1 {
		c.M.DoorbellBatches++
		c.M.DoorbellOps += int64(len(reqs))
	}
	c.yield()
}

// Write stores data at a via a single signaled RDMA_WRITE: one round trip.
func (c *Client) Write(a Addr, data []byte) {
	c.PostWrites(WriteOp{Addr: a, Data: data})
}

// PostWrites posts the given WRITE commands on one queue pair in order, with
// only the last command signaled: the NIC at the receiver executes them in
// posting order (RC in-order delivery, §4.5), so dependent writes — node
// write-back then lock release — complete in one round trip. All targets
// must live on the same memory server, since an RC QP connects exactly one
// pair of NICs.
func (c *Client) PostWrites(ops ...WriteOp) {
	if len(ops) == 0 {
		return
	}
	c.checkVerb()
	p := &c.F.P
	srv := c.F.Server(ops[0].Addr)
	for _, op := range ops[1:] {
		if op.Addr.MS() != srv.ID {
			panic(fmt.Sprintf("rdma: combined post spans servers ms%d and ms%d", srv.ID, op.Addr.MS()))
		}
	}
	t := c.Clk.Now()
	for _, op := range ops {
		t = c.CS.Outbound.Acquire(t, p.PayloadNS(len(op.Data), p.OutboundMinNS))
	}
	for _, op := range ops {
		t = srv.Inbound.Acquire(t, p.PayloadNS(len(op.Data), p.InboundMinNS))
		srv.NoteInbound(op.Addr, 1)
		srv.write(op.Addr, op.Data)
		c.M.WriteBytes += int64(len(op.Data))
		c.M.OpWriteBytes += int64(len(op.Data))
		c.M.Writes++
	}
	c.Clk.AdvanceTo(t + p.RTTNS)
	c.roundTrip()
	if len(ops) > 1 {
		c.M.DoorbellBatches++
		c.M.DoorbellOps += int64(len(ops))
	}
	c.yield()
}

func (c *Client) atomicTiming(a Addr, backlogNS int64) int64 {
	c.checkVerb()
	p := &c.F.P
	srv := c.F.Server(a)
	conflictSvc, unitSvc := p.HostAtomicNS, p.HostAtomicUnitNS
	if a.OnChip() {
		conflictSvc, unitSvc = p.OnChipAtomicNS, p.OnChipAtomicUnitNS
	}
	t := c.CS.Outbound.Acquire(c.Clk.Now(), p.OutboundMinNS)
	t = srv.Inbound.Acquire(t, p.InboundMinNS)
	srv.NoteInbound(a, 1)
	// Commands already sitting in the NIC's internal queue ahead of ours
	// (e.g. one in-flight CAS per concurrent lock spinner) serialize first
	// (§3.2.2).
	t += backlogNS
	// The NIC's single atomic pipeline bounds aggregate atomic throughput;
	// the per-address bucket serializes conflicting commands on top.
	t = srv.AtomicUnit.Acquire(t, unitSvc)
	t = srv.bucketFor(a).Acquire(t, conflictSvc)
	c.roundTrip()
	c.M.Atomics++
	return t + p.RTTNS
}

// AtomicSvcNS returns the total in-NIC service time of one atomic command
// targeting a — pipeline occupancy plus conflict serialization (§3.2.2,
// §4.3). Lock managers use it to size handoff backlogs.
func (c *Client) AtomicSvcNS(a Addr) int64 {
	if a.OnChip() {
		return c.F.P.OnChipAtomicNS + c.F.P.OnChipAtomicUnitNS
	}
	return c.F.P.HostAtomicNS + c.F.P.HostAtomicUnitNS
}

// CAS executes RDMA_CAS on the 8-byte word at a, returning the previous
// value and whether the swap happened. Host-memory targets pay the in-NIC
// PCIe-transaction cost serialized per atomic bucket (§3.2.2); on-chip
// targets do not (§4.3).
func (c *Client) CAS(a Addr, old, new uint64) (uint64, bool) {
	return c.cas(a, old, new, 0, a, nil)
}

// CASBacklog is CAS whose command must first traverse backlogNS of service
// time already queued in the target NIC's atomic unit — the in-flight
// commands of concurrent spinners (§3.2.2). Lock managers use it to model
// handoff latency under heavy contention.
func (c *Client) CASBacklog(a Addr, old, new uint64, backlogNS int64) (uint64, bool) {
	return c.cas(a, old, new, backlogNS, a, nil)
}

// CASRead is the acquire doorbell: the CAS on lock and the READ of buf at a
// posted back to back on one queue pair, the READ executing after the CAS
// (RC in-order delivery, §4.5). One round trip.
func (c *Client) CASRead(lock Addr, old, new uint64, a Addr, buf []byte) (uint64, bool) {
	return c.cas(lock, old, new, 0, a, buf)
}

func (c *Client) cas(a Addr, old, new uint64, backlogNS int64, ra Addr, buf []byte) (uint64, bool) {
	fin := c.atomicTiming(a, backlogNS)
	prev := c.F.Server(a).cas(a, old, new)
	swapped := prev == old
	c.Clk.AdvanceTo(c.readBehind(fin, a, ra, buf))
	if !swapped {
		c.M.CASFailures++
	}
	c.yield()
	return prev, swapped
}

// CAS16 executes a masked RDMA_CAS confined to the 16-bit field at a (which
// must be 2-aligned within its 8-byte word). Masked CAS is the "enhanced
// atomic" verb Sherman uses to pack 131,072 locks into 256 KB of on-chip
// memory (§4.3).
func (c *Client) CAS16(a Addr, old, new uint16) (uint16, bool) {
	return c.cas16(a, old, new, 0, a, nil)
}

// CAS16Backlog is CAS16 behind backlogNS of queued atomic service time; see
// CASBacklog.
func (c *Client) CAS16Backlog(a Addr, old, new uint16, backlogNS int64) (uint16, bool) {
	return c.cas16(a, old, new, backlogNS, a, nil)
}

// CAS16Read is CASRead with the masked 16-bit CAS of on-chip lock words.
func (c *Client) CAS16Read(lock Addr, old, new uint16, a Addr, buf []byte) (uint16, bool) {
	return c.cas16(lock, old, new, 0, a, buf)
}

func (c *Client) cas16(a Addr, old, new uint16, backlogNS int64, ra Addr, buf []byte) (uint16, bool) {
	fin := c.atomicTiming(a, backlogNS)
	prev := c.F.Server(a).cas16(a, old, new)
	swapped := prev == old
	c.Clk.AdvanceTo(c.readBehind(fin, a, ra, buf))
	if !swapped {
		c.M.CASFailures++
	}
	c.yield()
	return prev, swapped
}

// readBehind executes the READ that an acquire doorbell carries behind its
// CAS (nothing when buf is nil) and returns the doorbell's completion time.
// casFin is the CAS's own completion: the READ is the queue pair's next
// command, so it occupies the CS's outbound pipeline for one more post,
// enters the server's inbound pipeline when the CAS has executed — one RTT
// before casFin — pays its response payload there, and the one round trip
// atomicTiming booked covers both commands.
func (c *Client) readBehind(casFin int64, lock, a Addr, buf []byte) int64 {
	if buf == nil {
		return casFin
	}
	if a.MS() != lock.MS() {
		panic(fmt.Sprintf("rdma: combined post spans servers ms%d and ms%d", lock.MS(), a.MS()))
	}
	p := &c.F.P
	srv := c.F.Server(a)
	c.CS.Outbound.Acquire(c.Clk.Now(), p.OutboundMinNS)
	t := srv.Inbound.Acquire(casFin-p.RTTNS, p.PayloadNS(len(buf), p.InboundMinNS))
	srv.NoteInbound(a, 1)
	srv.read(a, buf)
	c.M.Reads++
	c.M.DoorbellBatches++
	c.M.DoorbellOps += 2
	return t + p.RTTNS
}

// FAA executes RDMA_FAA on the 8-byte word at a and returns the previous
// value.
func (c *Client) FAA(a Addr, delta uint64) uint64 {
	fin := c.atomicTiming(a, 0)
	prev := c.F.Server(a).faa(a, delta)
	c.Clk.AdvanceTo(fin)
	c.yield()
	return prev
}

// ChargeAtomic accounts the cost of one atomic command — NIC pipelines,
// atomic-bucket serialization, a round trip, a failure count — without
// executing a memory operation. Lock implementations use it to bill spin
// retries that are implied by virtual time rather than observed in real
// time (see hocl).
func (c *Client) ChargeAtomic(a Addr) {
	fin := c.atomicTiming(a, 0)
	c.Clk.AdvanceTo(fin)
	c.M.CASFailures++
	c.yield()
}

// maxSpinCharges bounds the work of one ChargeSpin call in real time; waits
// long enough to hit it are already far into the collapse regime, where
// undercounting the tail of the storm changes nothing observable.
const maxSpinCharges = 1 << 14

// ChargeSpin models a failed-CAS polling loop across the virtual window
// [from, to): the spinner keeps exactly one CAS in flight at all times,
// re-posting as each completion arrives, so retries land at the given
// cadence — the storm-inflated completion time of one retry (round trip
// plus the NIC's atomic queue, which the lock manager estimates from the
// convoy depth). Every retry consumes sender and receiver IOPS and a round
// trip; this is the §3.2.2 retry traffic that squanders NIC resources. The
// caller's clock lands on `to`. Returns the number of retries charged.
//
// The retries' occupancy of the target's atomic unit is deliberately not
// booked here: a closed loop of spinners keeps the atomic queue at
// convoy-depth x service-time, and the lock manager bills exactly that
// bound to the winning CAS (CASBacklog). Booking open-loop charges as well
// would double-count the storm and grow the queue without bound.
func (c *Client) ChargeSpin(a Addr, from, to, cadence int64) int {
	c.checkVerb()
	p := &c.F.P
	srv := c.F.Server(a)
	if cadence <= 0 {
		cadence = p.RTTNS
	}
	n := 0
	for t := from; t+cadence < to && n < maxSpinCharges; t += cadence {
		c.CS.Outbound.Acquire(t, p.OutboundMinNS)
		srv.Inbound.Acquire(t, p.InboundMinNS)
		n++
	}
	srv.NoteInbound(a, int64(n))
	c.M.Atomics += int64(n)
	c.M.CASFailures += int64(n)
	c.M.RoundTrips += int64(n)
	c.M.OpRoundTrips += int64(n)
	c.Clk.AdvanceTo(to)
	if n > 0 {
		c.yield()
	}
	return n
}

// Call performs a two-sided RPC to memory server ms's memory thread: request
// and response messages plus the handler's service time on the wimpy CPU.
// fn runs the real server-side logic (e.g. chunk allocation) exactly once.
func (c *Client) Call(ms uint16, fn func()) {
	c.checkVerb()
	p := &c.F.P
	srv := c.F.Servers()[ms]
	t := c.CS.Outbound.Acquire(c.Clk.Now(), p.OutboundMinNS)
	t = srv.Inbound.Acquire(t, p.InboundMinNS)
	srv.NoteRPC()
	t = srv.CPU.Acquire(t, p.MemThreadRPCNS)
	fn()
	c.Clk.AdvanceTo(t + p.RTTNS)
	c.roundTrip()
	c.M.RPCs++
	c.yield()
}
