// Package tap is the one verb tap: Wrap decorates one client thread's
// transport.Transport so that a hook sees every verb the thread issues,
// and the decorated transport keeps exactly the inner one's capability
// set. Tests and tools that need to watch or interrupt an operation's
// verbs (a kill placed between two verbs, a second writer woken at a
// release, a verb ledger, a tracer) are written as hooks on it instead of
// as decorators of their own.
//
// The tap names every method of Transport and of the capability
// interfaces explicitly; it embeds no interface, so a method added to one
// of them does not pass through unseen (TestTapNamesEveryMethod). Two
// shapes are accepted, one per fabric: Transport + VirtualTimer (the
// simulator) and Transport + AsyncVerbs + Parker (TCP). Any other
// capability set is refused with an error.
//
// What the tap cannot see: only verbs that cross the Transport. On the
// simulator the virtual lock manager books part of a contended acquire on
// the fabric directly — a granted waiter's doorbell READ
// (rdma.Fabric.ReadBehind) and the billed spins of a wait
// (rdma.Fabric.ChargeSpin) — so those reach no hook (ROADMAP item 10).
// VirtualTimer's ChargeAtomic and ChargeSpin and the clock methods move no
// bytes and pass through without a hook call.
package tap

import (
	"fmt"

	"sherman/internal/transport"
)

// Kind is a verb the tap reports: one per verb method of Transport and of
// the capability interfaces, named after the method.
type Kind uint8

const (
	Read Kind = iota
	ReadMulti
	Write
	PostWrites
	CAS
	CAS16
	CASRead
	CAS16Read
	FAA
	GrowChunk
	CASBacklog      // VirtualTimer
	CAS16Backlog    // VirtualTimer
	ReadAsync       // AsyncVerbs
	PostWritesAsync // AsyncVerbs
	Await           // AsyncVerbs
	NumKinds
)

var kindNames = [NumKinds]string{
	"Read", "ReadMulti", "Write", "PostWrites", "CAS", "CAS16", "CASRead",
	"CAS16Read", "FAA", "GrowChunk", "CASBacklog", "CAS16Backlog",
	"ReadAsync", "PostWritesAsync", "Await",
}

func (k Kind) String() string { return kindNames[k] }

// Call is one verb as its hook sees it, after the verb returned.
type Call struct {
	Kind Kind
	// Addr is the verb's target: the READ's for CASRead and CAS16Read, the
	// first op's for ReadMulti and the write posts, the grown chunk's base
	// for GrowChunk, and zero for Await.
	Addr transport.Addr
	// Lock is the lock word of CASRead and CAS16Read.
	Lock transport.Addr
	// Len is the bytes the verb reads or writes: the buffer's, the READ's
	// for CAS*Read, the sum over the ops for ReadMulti and the write posts,
	// and the word's for the other atomics.
	Len int
	// Reads and Writes are the ops of ReadMulti and of PostWrites or
	// PostWritesAsync, as the caller passed them.
	Reads  []transport.ReadOp
	Writes []transport.WriteOp
	// Swapped is a CAS's outcome.
	Swapped bool
	// Start and End bracket the verb on the transport's own clock: virtual
	// on the simulator, monotonic over TCP.
	Start, End int64
}

// Hook runs once per verb, on the thread that issued it, after the verb
// returns (a verb that panics reports nothing). An async post reports at
// the post and its Await at the await. A hook may block; the thread's
// next verb waits for it.
type Hook func(Call)

// Wrap returns inner with every verb reported to hook, keeping exactly
// inner's capability set. It refuses a capability set it has no shape for.
func Wrap(inner transport.Transport, hook Hook) (transport.Transport, error) {
	b := base{in: inner, hook: hook}
	vt, isVT := inner.(transport.VirtualTimer)
	av, isAV := inner.(transport.AsyncVerbs)
	pk, isPK := inner.(transport.Parker)
	switch {
	case isVT && !isAV && !isPK:
		return &virtualTap{base: b, vt: vt}, nil
	case !isVT && isAV && isPK:
		return &asyncTap{base: b, av: av, pk: pk}, nil
	}
	return nil, fmt.Errorf("tap: no shape for %T (VirtualTimer %v, AsyncVerbs %v, Parker %v)", inner, isVT, isAV, isPK)
}

// base names every Transport method: the verbs call the hook, the rest
// pass through. Each shape embeds it and names its capabilities' methods.
type base struct {
	in   transport.Transport
	hook Hook
}

func (x *base) Read(a transport.Addr, buf []byte) {
	s := x.in.Now()
	x.in.Read(a, buf)
	x.hook(Call{Kind: Read, Addr: a, Len: len(buf), Start: s, End: x.in.Now()})
}

func (x *base) ReadMulti(ops []transport.ReadOp) {
	s := x.in.Now()
	x.in.ReadMulti(ops)
	c := Call{Kind: ReadMulti, Reads: ops, Start: s, End: x.in.Now()}
	for _, op := range ops {
		c.Len += len(op.Buf)
	}
	if len(ops) > 0 {
		c.Addr = ops[0].Addr
	}
	x.hook(c)
}

func (x *base) Write(a transport.Addr, data []byte) {
	s := x.in.Now()
	x.in.Write(a, data)
	x.hook(Call{Kind: Write, Addr: a, Len: len(data), Start: s, End: x.in.Now()})
}

func (x *base) PostWrites(ops ...transport.WriteOp) {
	s := x.in.Now()
	x.in.PostWrites(ops...)
	x.hook(writesCall(PostWrites, ops, s, x.in.Now()))
}

func (x *base) CAS(a transport.Addr, old, new uint64) (uint64, bool) {
	s := x.in.Now()
	v, ok := x.in.CAS(a, old, new)
	x.hook(Call{Kind: CAS, Addr: a, Len: 8, Swapped: ok, Start: s, End: x.in.Now()})
	return v, ok
}

func (x *base) CAS16(a transport.Addr, old, new uint16) (uint16, bool) {
	s := x.in.Now()
	v, ok := x.in.CAS16(a, old, new)
	x.hook(Call{Kind: CAS16, Addr: a, Len: 2, Swapped: ok, Start: s, End: x.in.Now()})
	return v, ok
}

func (x *base) CASRead(lock transport.Addr, old, new uint64, a transport.Addr, buf []byte) (uint64, bool) {
	s := x.in.Now()
	v, ok := x.in.CASRead(lock, old, new, a, buf)
	x.hook(Call{Kind: CASRead, Addr: a, Lock: lock, Len: len(buf), Swapped: ok, Start: s, End: x.in.Now()})
	return v, ok
}

func (x *base) CAS16Read(lock transport.Addr, old, new uint16, a transport.Addr, buf []byte) (uint16, bool) {
	s := x.in.Now()
	v, ok := x.in.CAS16Read(lock, old, new, a, buf)
	x.hook(Call{Kind: CAS16Read, Addr: a, Lock: lock, Len: len(buf), Swapped: ok, Start: s, End: x.in.Now()})
	return v, ok
}

func (x *base) FAA(a transport.Addr, delta uint64) uint64 {
	s := x.in.Now()
	v := x.in.FAA(a, delta)
	x.hook(Call{Kind: FAA, Addr: a, Len: 8, Start: s, End: x.in.Now()})
	return v
}

func (x *base) GrowChunk(ms uint16) uint64 {
	s := x.in.Now()
	off := x.in.GrowChunk(ms)
	x.hook(Call{Kind: GrowChunk, Addr: transport.MakeAddr(ms, off), Start: s, End: x.in.Now()})
	return off
}

func (x *base) Now() int64                  { return x.in.Now() }
func (x *base) Step(d int64)                { x.in.Step(d) }
func (x *base) AdvanceTo(t int64)           { x.in.AdvanceTo(t) }
func (x *base) CSID() uint16                { return x.in.CSID() }
func (x *base) Epoch() int64                { return x.in.Epoch() }
func (x *base) Alive() bool                 { return x.in.Alive() }
func (x *base) CheckAlive()                 { x.in.CheckAlive() }
func (x *base) NumMS() int                  { return x.in.NumMS() }
func (x *base) MSAlive(ms int) bool         { return x.in.MSAlive(ms) }
func (x *base) Metrics() *transport.Metrics { return x.in.Metrics() }
func (x *base) Timing() transport.Timing    { return x.in.Timing() }

func writesCall(k Kind, ops []transport.WriteOp, start, end int64) Call {
	c := Call{Kind: k, Writes: ops, Start: start, End: end}
	for _, op := range ops {
		c.Len += len(op.Data)
	}
	if len(ops) > 0 {
		c.Addr = ops[0].Addr
	}
	return c
}

// virtualTap is the simulator's shape: base plus VirtualTimer, whose
// backlog CASes are verbs (the virtual lock manager's acquisitions).
type virtualTap struct {
	base
	vt transport.VirtualTimer
}

func (x *virtualTap) OnTimeline(start int64, fn func()) int64 { return x.vt.OnTimeline(start, fn) }
func (x *virtualTap) SetClock(v int64)                        { x.vt.SetClock(v) }
func (x *virtualTap) AtomicSvcNS(a transport.Addr) int64      { return x.vt.AtomicSvcNS(a) }
func (x *virtualTap) ChargeAtomic(a transport.Addr)           { x.vt.ChargeAtomic(a) }

func (x *virtualTap) ChargeSpin(a transport.Addr, from, to, cadence int64) int {
	return x.vt.ChargeSpin(a, from, to, cadence)
}

func (x *virtualTap) CASBacklog(a transport.Addr, old, new uint64, backlogNS int64) (uint64, bool) {
	s := x.in.Now()
	v, ok := x.vt.CASBacklog(a, old, new, backlogNS)
	x.hook(Call{Kind: CASBacklog, Addr: a, Len: 8, Swapped: ok, Start: s, End: x.in.Now()})
	return v, ok
}

func (x *virtualTap) CAS16Backlog(a transport.Addr, old, new uint16, backlogNS int64) (uint16, bool) {
	s := x.in.Now()
	v, ok := x.vt.CAS16Backlog(a, old, new, backlogNS)
	x.hook(Call{Kind: CAS16Backlog, Addr: a, Len: 2, Swapped: ok, Start: s, End: x.in.Now()})
	return v, ok
}

// asyncTap is TCP's shape: base plus AsyncVerbs and Parker. A tap that
// dropped Parker would leave the thread uncounted, and its posted frames
// would wait for a write nobody makes.
type asyncTap struct {
	base
	av transport.AsyncVerbs
	pk transport.Parker
}

func (x *asyncTap) ReadAsync(a transport.Addr, buf []byte) transport.Pending {
	s := x.in.Now()
	p := x.av.ReadAsync(a, buf)
	x.hook(Call{Kind: ReadAsync, Addr: a, Len: len(buf), Start: s, End: x.in.Now()})
	return p
}

func (x *asyncTap) PostWritesAsync(ops ...transport.WriteOp) transport.Pending {
	s := x.in.Now()
	p := x.av.PostWritesAsync(ops...)
	x.hook(writesCall(PostWritesAsync, ops, s, x.in.Now()))
	return p
}

func (x *asyncTap) Await(p transport.Pending) {
	s := x.in.Now()
	x.av.Await(p)
	x.hook(Call{Kind: Await, Start: s, End: x.in.Now()})
}

func (x *asyncTap) Held() bool { return x.pk.Held() }
func (x *asyncTap) Park()      { x.pk.Park() }
func (x *asyncTap) Hand()      { x.pk.Hand() }
func (x *asyncTap) Take()      { x.pk.Take() }
