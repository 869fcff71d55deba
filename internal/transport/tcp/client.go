package tcp

import (
	"encoding/binary"
	"fmt"
	"time"

	"sherman/internal/transport"
)

const dialTimeout = 5 * time.Second

// clockBase anchors this process's monotonic clock. On its own it is NOT a
// valid lease-time origin — two client processes would stamp locks against
// different zeros — so Transport.Now() adds the cluster's clock offset,
// established against memory server 0's Ping epoch at NewCluster time.
// Every client process of one cluster thereby compares lease stamps on the
// same (server-anchored) timeline.
var clockBase = time.Now()

func nowNS() int64 { return time.Since(clockBase).Nanoseconds() }

// Transport is one client thread's view of the TCP fabric. It implements
// transport.Transport with real clocks: Now is monotonic wall time,
// Step/AdvanceTo are no-ops (local work takes whatever time it takes), and
// it deliberately does not implement transport.VirtualTimer — core code
// holding a nil VirtualTimer runs its timeline hooks synchronously. It does
// implement transport.AsyncVerbs: reads and doorbell write batches can be
// posted without waiting, so a pipelined executor keeps depth-N verbs in
// flight per memory server. And it implements transport.Parker: posted
// frames leave when the cluster's last runnable thread blocks (runners), so
// the verbs of threads woken together share one write.
//
// Like every Transport it is owned by a single goroutine. The sockets
// themselves live in the cluster's per-server muxConns (dialed once at
// bring-up, shared by every thread); this struct is just the per-thread
// scratch — metrics, payload builders, pending-op slots — so creating one
// is cheap and thread counts don't multiply connections.
type Transport struct {
	cl      *Cluster
	cs      uint16
	m       transport.Metrics
	payload []byte // request payload scratch

	rmGroups []readGroup // ReadMulti per-server group scratch

	// held says this thread holds one of the cluster's runnable counts:
	// handed to it by whoever woke it, given up whenever it blocks.
	held bool

	pend  []pendingOp // AsyncVerbs completion slots
	pfree []int32     // free indices into pend
}

var _ transport.Transport = (*Transport)(nil)
var _ transport.AsyncVerbs = (*Transport)(nil)
var _ transport.Parker = (*Transport)(nil)

// readGroup is one per-server slice of a ReadMulti fan-out: the ReadBatch
// frame for ms was issued under tag (when issued; a server already dead at
// issue time yields an unissued group that zero-fills). head is the index
// of the group's first op; membership is every op addressed to ms.
type readGroup struct {
	ms     uint16
	tag    uint32
	head   int
	issued bool
}

// pendingOp is one in-flight AsyncVerbs operation awaiting completion.
type pendingOp struct {
	kind byte
	ms   uint16
	tag  uint32
	buf  []byte // read destination; nil for writes
}

const (
	pendDead  byte = iota // server was dead at issue; Await applies dead semantics
	pendRead              // opRead in flight; Await fills buf
	pendWrite             // opWriteBatch in flight
)

// Close releases the per-thread scratch. The sockets are cluster-owned
// (Cluster.Close tears them down), so this is a formality kept for the
// owner-calls-Close discipline the v1 pooled transport established.
func (t *Transport) Close() {}

// post issues one frame carrying t.payload on mx — no syscall; the frame
// leaves when the last runnable thread of the cluster blocks, this one
// included, so frames posted to several servers — ReadMulti groups, replica
// mirrors ahead of the primary's verb — are all on the wire, overlapping
// their round trips, before the thread parks on any one of them.
func (t *Transport) post(mx *muxConn, op byte) uint32 {
	tag, ok := mx.tryIssue(op, t.payload)
	if !ok {
		// A full window is a wait nobody hands a count across: give it up
		// while blocked (slots free up only once frames leave), take it back.
		held := t.held
		t.Park()
		tag = <-mx.free
		mx.send(tag, op, t.payload)
		if held {
			t.Hand()
			t.Take()
		}
	}
	return tag
}

// await is mx.await for this thread's count: a response that is already in
// costs no syscall, so a caller retiring a window of completed pendings
// keeps accumulating its new posts into one write.
func (t *Transport) await(mx *muxConn, tag uint32) ([]byte, bool) {
	return mx.awaitAs(tag, t.held)
}

// --- transport.Parker ------------------------------------------------------

func (t *Transport) Held() bool { return t.held }

func (t *Transport) Park() {
	held := t.held
	t.held = false
	t.cl.run.park(held)
}

func (t *Transport) Hand() { t.cl.run.n.Add(1) }
func (t *Transport) Take() { t.held = true }

// --- verbs -----------------------------------------------------------------

// Verbs against a dead server apply the dead-memory semantics every backend
// shares — reads zero-fill, writes are discarded, atomics fabricate success
// from zeroed memory so validating reads observe the death (DESIGN.md §12).
// markDead runs failover promotion synchronously before publishing the
// death, so by the time a verb reports a dead server the forwarding map
// already redirects its chunks.

func (t *Transport) Read(a transport.Addr, buf []byte) {
	t.m.Reads++
	ms := a.MS()
	mx, alive := t.cl.mux(ms)
	if !alive {
		clear(buf)
		return
	}
	t.payload = appendU32(appendU64(t.payload[:0], uint64(a)), uint32(len(buf)))
	tag := t.post(mx, opRead)
	resp, ok := t.await(mx, tag)
	if !ok {
		mx.release(tag)
		t.cl.markDead(int(ms))
		clear(buf)
		return
	}
	copy(buf, resp)
	mx.release(tag)
	t.m.RoundTrips++
	t.m.OpRoundTrips++
}

func (t *Transport) ReadMulti(ops []transport.ReadOp) {
	if len(ops) == 0 {
		return
	}
	// Group by memory server: each group is one ReadBatch frame — the
	// doorbell-batched post of the simulator mapped to one round trip. All
	// groups are issued before any is awaited, so a multi-server fan-out
	// overlaps its round trips instead of visiting servers sequentially.
	t.rmGroups = t.rmGroups[:0]
	for i := range ops {
		ms := ops[i].Addr.MS()
		grouped := false
		for _, g := range t.rmGroups {
			if g.ms == ms {
				grouped = true
				break
			}
		}
		if grouped {
			continue
		}
		t.payload = appendU32(t.payload[:0], 0)
		n := 0
		for j := i; j < len(ops); j++ {
			if ops[j].Addr.MS() != ms {
				continue
			}
			t.payload = appendU32(appendU64(t.payload, uint64(ops[j].Addr)), uint32(len(ops[j].Buf)))
			n++
		}
		binary.LittleEndian.PutUint32(t.payload[0:4], uint32(n))
		t.m.Reads += int64(n)
		if n > 1 {
			t.m.DoorbellBatches++
			t.m.DoorbellOps += int64(n)
		}
		g := readGroup{ms: ms, head: i}
		if mx, alive := t.cl.mux(ms); alive {
			g.tag = t.post(mx, opReadBatch)
			g.issued = true
		}
		t.rmGroups = append(t.rmGroups, g)
	}
	for _, g := range t.rmGroups {
		var resp []byte
		ok := false
		var mx *muxConn
		if g.issued {
			mx = t.cl.muxes[g.ms]
			resp, ok = t.await(mx, g.tag)
			if ok {
				t.m.RoundTrips++
				t.m.OpRoundTrips++
			}
		}
		off := 0
		for j := g.head; j < len(ops); j++ {
			if ops[j].Addr.MS() != g.ms {
				continue
			}
			if ok && off+len(ops[j].Buf) > len(resp) {
				// Truncated response: the server desynchronized mid-batch.
				// Treat it as a death — zero-fill the rest of the group
				// rather than slicing past the frame.
				ok = false
			}
			if ok {
				copy(ops[j].Buf, resp[off:off+len(ops[j].Buf)])
			} else {
				clear(ops[j].Buf)
			}
			off += len(ops[j].Buf)
		}
		if g.issued {
			mx.release(g.tag)
			if !ok {
				t.cl.markDead(int(g.ms))
			}
		}
	}
}

func (t *Transport) Write(a transport.Addr, data []byte) {
	t.m.Writes++
	t.m.WriteBytes += int64(len(data))
	t.m.OpWriteBytes += int64(len(data))
	ms := a.MS()
	mx, alive := t.cl.mux(ms)
	if !alive {
		return // dead: write discarded
	}
	t.payload = appendU32(t.payload[:0], 1)
	t.payload = appendU32(appendU64(t.payload, uint64(a)), uint32(len(data)))
	t.payload = append(t.payload, data...)
	tag := t.post(mx, opWriteBatch)
	_, ok := t.await(mx, tag)
	mx.release(tag)
	if !ok {
		t.cl.markDead(int(ms))
		return
	}
	t.m.RoundTrips++
	t.m.OpRoundTrips++
}

// buildWriteBatch assembles the WriteBatch payload for ops and books the
// write metrics — shared by the sync and async paths.
func (t *Transport) buildWriteBatch(ops []transport.WriteOp) {
	t.payload = appendU32(t.payload[:0], uint32(len(ops)))
	for _, op := range ops {
		t.payload = appendU32(appendU64(t.payload, uint64(op.Addr)), uint32(len(op.Data)))
		t.payload = append(t.payload, op.Data...)
		t.m.Writes++
		t.m.WriteBytes += int64(len(op.Data))
		t.m.OpWriteBytes += int64(len(op.Data))
	}
	if len(ops) > 1 {
		t.m.DoorbellBatches++
		t.m.DoorbellOps += int64(len(ops))
	}
}

func (t *Transport) PostWrites(ops ...transport.WriteOp) {
	if len(ops) == 0 {
		return
	}
	// Dependent writes to one server coalesce into a single WriteBatch
	// frame, applied op by op in posted order: §4.5's doorbell batch.
	t.buildWriteBatch(ops)
	ms := ops[0].Addr.MS()
	mx, alive := t.cl.mux(ms)
	if !alive {
		return
	}
	tag := t.post(mx, opWriteBatch)
	_, ok := t.await(mx, tag)
	mx.release(tag)
	if !ok {
		t.cl.markDead(int(ms))
		return
	}
	t.m.RoundTrips++
	t.m.OpRoundTrips++
}

func (t *Transport) CAS(a transport.Addr, old, new uint64) (uint64, bool) {
	return t.CASRead(a, old, new, a, nil)
}

func (t *Transport) CAS16(a transport.Addr, old, new uint16) (uint16, bool) {
	return t.CAS16Read(a, old, new, a, nil)
}

func (t *Transport) CASRead(lock transport.Addr, old, new uint64, a transport.Addr, buf []byte) (uint64, bool) {
	t.payload = appendU64(appendU64(appendU64(t.payload[:0], uint64(lock)), old), new)
	return t.cas(opCAS, lock, old == 0, a, buf)
}

func (t *Transport) CAS16Read(lock transport.Addr, old, new uint16, a transport.Addr, buf []byte) (uint16, bool) {
	t.payload = appendU64(t.payload[:0], uint64(lock))
	t.payload = append(t.payload, byte(old), byte(old>>8), byte(new), byte(new>>8))
	prev, swapped := t.cas(opCAS16, lock, old == 0, a, buf)
	return uint16(prev), swapped
}

// cas posts the CAS frame its caller built in t.payload (op is opCAS or
// opCAS16) and awaits it. A non-nil buf makes it the acquire doorbell: the
// READ of buf at a is posted right behind the CAS on the same connection and
// both replies are awaited together — one flush, one park, one round trip.
// shermand executes a connection's frames in posted order, so the READ sees
// memory as the CAS left it, exactly like the second command of a doorbell
// on an RC queue pair: the two existing frames, no opcode of its own.
func (t *Transport) cas(op byte, lock transport.Addr, fromZero bool, a transport.Addr, buf []byte) (uint64, bool) {
	t.m.Atomics++
	ms := lock.MS()
	if buf != nil {
		if a.MS() != ms {
			panic(fmt.Sprintf("tcp: acquire doorbell spans servers ms%d and ms%d", ms, a.MS()))
		}
		t.m.Reads++
		t.m.DoorbellBatches++
		t.m.DoorbellOps += 2
	}
	if mx, alive := t.cl.mux(ms); alive {
		ctag := t.post(mx, op)
		var rtag uint32
		paired := false // the READ's frame is posted behind the CAS's
		if buf != nil {
			t.payload = appendU32(appendU64(t.payload[:0], uint64(a)), uint32(len(buf)))
			rtag, paired = mx.tryIssue(opRead, t.payload)
		}
		resp, ok := t.await(mx, ctag)
		var prev uint64
		var swapped bool
		if ok {
			p := payloadReader{b: resp}
			if op == opCAS16 {
				prev = uint64(p.u16())
			} else {
				prev = p.u64()
			}
			swapped = p.u8() == 1
		}
		mx.release(ctag)
		trips := int64(1)
		if buf != nil {
			if !paired {
				// The window had no second slot, and a thread holding one
				// must not block for another (a window full of such threads
				// never drains): the READ follows on a round trip of its own.
				rtag = t.post(mx, opRead)
				trips = 2
			}
			resp, rok := t.await(mx, rtag)
			if ok = ok && rok; ok {
				copy(buf, resp)
			}
			mx.release(rtag)
		}
		if ok {
			t.m.RoundTrips += trips
			t.m.OpRoundTrips += trips
			if !swapped {
				t.m.CASFailures++
			}
			return prev, swapped
		}
		t.cl.markDead(int(ms))
	}
	// Dead memory fabricates the atomic from zeroed bytes, exactly as the
	// simulator does (DESIGN.md §12): a CAS expecting 0 "succeeds" so lock
	// acquisition proceeds into its validating read — the zero-filled buf,
	// when the doorbell carried it — which observes the death and takes the
	// chase/failover path, instead of spinning forever on a false CAS.
	clear(buf)
	if fromZero {
		return 0, true
	}
	t.m.CASFailures++
	return 0, false
}

func (t *Transport) FAA(a transport.Addr, delta uint64) uint64 {
	t.m.Atomics++
	ms := a.MS()
	mx, alive := t.cl.mux(ms)
	if !alive {
		return 0
	}
	t.payload = appendU64(appendU64(t.payload[:0], uint64(a)), delta)
	tag := t.post(mx, opFAA)
	resp, ok := t.await(mx, tag)
	if !ok {
		mx.release(tag)
		t.cl.markDead(int(ms))
		return 0
	}
	p := payloadReader{b: resp}
	prev := p.u64()
	mx.release(tag)
	t.m.RoundTrips++
	t.m.OpRoundTrips++
	return prev
}

func (t *Transport) GrowChunk(ms uint16) uint64 {
	t.m.RPCs++
	mx, alive := t.cl.mux(ms)
	if !alive {
		return 0
	}
	t.payload = t.payload[:0]
	tag := t.post(mx, opGrow)
	resp, ok := t.await(mx, tag)
	if !ok {
		mx.release(tag)
		t.cl.markDead(int(ms))
		return 0
	}
	p := payloadReader{b: resp}
	base := p.u64()
	mx.release(tag)
	t.m.RoundTrips++
	t.m.OpRoundTrips++
	return base
}

// --- transport.AsyncVerbs --------------------------------------------------

// newPending takes a completion slot off the freelist (growing the table on
// first use; steady state allocates nothing).
func (t *Transport) newPending() (transport.Pending, *pendingOp) {
	if n := len(t.pfree); n > 0 {
		idx := t.pfree[n-1]
		t.pfree = t.pfree[:n-1]
		return transport.Pending(idx), &t.pend[idx]
	}
	t.pend = append(t.pend, pendingOp{})
	return transport.Pending(len(t.pend) - 1), &t.pend[len(t.pend)-1]
}

// ReadAsync posts the read and returns without waiting. buf is filled (or
// zero-filled, on death) at Await time.
func (t *Transport) ReadAsync(a transport.Addr, buf []byte) transport.Pending {
	t.m.Reads++
	idx, p := t.newPending()
	p.ms = a.MS()
	p.buf = buf
	mx, alive := t.cl.mux(p.ms)
	if !alive {
		p.kind = pendDead
		return idx
	}
	t.payload = appendU32(appendU64(t.payload[:0], uint64(a)), uint32(len(buf)))
	p.kind = pendRead
	p.tag = t.post(mx, opRead)
	return idx
}

// PostWritesAsync posts one doorbell batch and returns without waiting.
// The data is captured into the frame at post, so callers may reuse their
// op buffers immediately.
func (t *Transport) PostWritesAsync(ops ...transport.WriteOp) transport.Pending {
	idx, p := t.newPending()
	p.buf = nil
	if len(ops) == 0 {
		p.kind = pendDead
		return idx
	}
	t.buildWriteBatch(ops)
	p.ms = ops[0].Addr.MS()
	mx, alive := t.cl.mux(p.ms)
	if !alive {
		p.kind = pendDead
		return idx
	}
	p.kind = pendWrite
	p.tag = t.post(mx, opWriteBatch)
	return idx
}

// Await completes pd: blocks for the response, applies it (filling the read
// buffer, or dead-memory semantics), and releases the slot.
func (t *Transport) Await(pd transport.Pending) {
	p := &t.pend[pd]
	if p.kind == pendDead {
		if p.buf != nil {
			clear(p.buf)
		}
	} else {
		mx := t.cl.muxes[p.ms]
		resp, ok := t.await(mx, p.tag)
		if ok {
			if p.kind == pendRead {
				copy(p.buf, resp)
			}
			mx.release(p.tag)
			t.m.RoundTrips++
			t.m.OpRoundTrips++
		} else {
			mx.release(p.tag)
			t.cl.markDead(int(p.ms))
			if p.kind == pendRead {
				clear(p.buf)
			}
		}
	}
	p.buf = nil
	t.pfree = append(t.pfree, int32(pd))
}

// --- clock and topology ----------------------------------------------------

// Now returns cluster time: this process's monotonic clock shifted onto the
// timeline anchored at memory server 0's Ping epoch, so lease stamps are
// comparable across client processes.
func (t *Transport) Now() int64      { return nowNS() + t.cl.clockOff.Load() }
func (t *Transport) Step(int64)      {}
func (t *Transport) AdvanceTo(int64) {}

func (t *Transport) CSID() uint16 { return t.cs }
func (t *Transport) Epoch() int64 { return 0 }
func (t *Transport) Alive() bool  { return true }
func (t *Transport) CheckAlive()  {}

func (t *Transport) NumMS() int          { return len(t.cl.endpoints) }
func (t *Transport) MSAlive(ms int) bool { return !t.cl.isDead(ms) }

func (t *Transport) Metrics() *transport.Metrics { return &t.m }

func (t *Transport) Timing() transport.Timing {
	// Real clocks: no virtual cost constants, and the lease is a real
	// duration. A zero WraparoundGuardNS disables §4.4's wraparound
	// heuristic: a read passes a wrapped 4-bit version only if 16
	// write-backs of one node (or one entry) land inside one read verb's
	// apply on the server, each behind its own lock handoff of at least a
	// loopback round trip (DESIGN.md §13).
	return transport.Timing{LeaseNS: int64(200 * time.Millisecond)}
}
