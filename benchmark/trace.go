package main

import (
	"sync"
	"sync/atomic"
	"time"

	"sherman/internal/core"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// The program is not edited, so spans come from here: the traced run builds
// its tree over a core.Backend whose transports are decorated to record one
// span per fabric verb, and its client records one span per operation.
// Spans live in memory and are written out when the run ends.

var processStart = time.Now()

// nanotime is the benchmark's monotonic clock; it never returns 0.
func nanotime() int64 { return int64(time.Since(processStart)) }

type verb uint8

const (
	vRead verb = iota
	vReadMulti
	vWrite
	vPostWrites
	vCAS
	vCAS16
	vFAA
	vGrow
	nVerbs
)

var verbNames = [nVerbs]string{"read", "read_multi", "write", "post_writes", "cas", "cas16", "faa", "grow_chunk"}

// rawOps is how many leading operations keep their raw spans; rawVerbs
// bounds the verb spans one transport keeps for them.
const (
	rawOps   = 5000
	rawVerbs = 2 * rawOps
)

// rawSpan is one recorded span. An op span has ID = the op's sequence number
// and Parent 0 (the session); a verb span has ID 0 and Parent = the op that
// issued it, or 0 when it ran on a pipelined runner's own transport and can
// only be attributed to the session.
type rawSpan struct {
	Name    string `json:"name"`
	ID      int64  `json:"id,omitempty"`
	Parent  int64  `json:"parent"`
	Tracer  int    `json:"tracer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// trace owns every tracer of one traced run. Recording flips on and off in
// short stretches (session.flipTrace): the throughput difference between the
// traced and the untraced stretches is the tracing overhead.
type trace struct {
	on atomic.Bool

	mu      sync.Mutex
	tracers []*tracer
}

// tracer records the verbs of one transport. Like the transport it is owned
// by one goroutine; the run reads it after that goroutine has quiesced.
type tracer struct {
	on   *atomic.Bool
	id   int
	hist [nVerbs]*stats.Hist

	// curOp is the operation running on this goroutine (set by the client);
	// childN/childNS accumulate its verb spans so the client can take self
	// time as span minus children.
	curOp   int64
	childN  int64
	childNS int64

	raw []rawSpan
}

func (tr *trace) newTracer() *tracer {
	t := &tracer{on: &tr.on, raw: make([]rawSpan, 0, rawVerbs)}
	for i := range t.hist {
		t.hist[i] = stats.NewHist()
	}
	tr.mu.Lock()
	t.id = len(tr.tracers) + 1
	tr.tracers = append(tr.tracers, t)
	tr.mu.Unlock()
	return t
}

// begin returns the span's start, or 0 when recording is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return 0
	}
	return nanotime()
}

func (t *tracer) end(v verb, start int64) {
	if start == 0 {
		return
	}
	end := nanotime()
	t.hist[v].Record(end - start)
	t.childN++
	t.childNS += end - start
	if len(t.raw) < cap(t.raw) && t.curOp <= rawOps {
		t.raw = append(t.raw, rawSpan{Name: verbNames[v], Parent: t.curOp, Tracer: t.id, StartNS: start, EndNS: end})
	}
}

// takeChildren returns and clears the verb spans recorded since the last
// call: the children of the operation that just ended.
func (t *tracer) takeChildren() (n, ns int64) {
	n, ns = t.childN, t.childNS
	t.childN, t.childNS = 0, 0
	return n, ns
}

// verbHists merges every tracer's per-verb histograms.
func (tr *trace) verbHists() [nVerbs]*stats.Hist {
	var out [nVerbs]*stats.Hist
	for v := range out {
		out[v] = stats.NewHist()
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.tracers {
		for v, h := range t.hist {
			out[v].Merge(h)
		}
	}
	return out
}

// rawSpans returns the verb spans kept for the leading operations, dropping
// runner spans that started after the last kept op ended.
func (tr *trace) rawSpans(until int64) []rawSpan {
	var out []rawSpan
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.tracers {
		for _, s := range t.raw {
			if s.StartNS <= until {
				out = append(out, s)
			}
		}
	}
	return out
}

// tracedTransport decorates a transport with verb spans; everything that is
// not a fabric verb passes through the embedded interface. It does not
// forward transport.AsyncVerbs: core uses that capability only to mirror
// writes to replicas, and every workload here runs unreplicated.
type tracedTransport struct {
	transport.Transport
	t *tracer
}

func (x *tracedTransport) Read(a transport.Addr, buf []byte) {
	s := x.t.begin()
	x.Transport.Read(a, buf)
	x.t.end(vRead, s)
}

func (x *tracedTransport) ReadMulti(ops []transport.ReadOp) {
	s := x.t.begin()
	x.Transport.ReadMulti(ops)
	x.t.end(vReadMulti, s)
}

func (x *tracedTransport) Write(a transport.Addr, data []byte) {
	s := x.t.begin()
	x.Transport.Write(a, data)
	x.t.end(vWrite, s)
}

func (x *tracedTransport) PostWrites(ops ...transport.WriteOp) {
	s := x.t.begin()
	x.Transport.PostWrites(ops...)
	x.t.end(vPostWrites, s)
}

func (x *tracedTransport) CAS(a transport.Addr, old, new uint64) (uint64, bool) {
	s := x.t.begin()
	v, ok := x.Transport.CAS(a, old, new)
	x.t.end(vCAS, s)
	return v, ok
}

func (x *tracedTransport) CAS16(a transport.Addr, old, new uint16) (uint16, bool) {
	s := x.t.begin()
	v, ok := x.Transport.CAS16(a, old, new)
	x.t.end(vCAS16, s)
	return v, ok
}

func (x *tracedTransport) FAA(a transport.Addr, delta uint64) uint64 {
	s := x.t.begin()
	v := x.Transport.FAA(a, delta)
	x.t.end(vFAA, s)
	return v
}

func (x *tracedTransport) GrowChunk(ms uint16) uint64 {
	s := x.t.begin()
	v := x.Transport.GrowChunk(ms)
	x.t.end(vGrow, s)
	return v
}

// tracedSim adds the simulator's VirtualTimer capability, which core and
// hocl assert on. The backlog-aware CAS variants are fabric verbs (hocl's
// lock acquisitions on the simulator) and get spans; the rest is clock and
// cost bookkeeping and passes through.
type tracedSim struct {
	tracedTransport
	vt transport.VirtualTimer
}

func (x *tracedSim) OnTimeline(start int64, fn func()) int64 { return x.vt.OnTimeline(start, fn) }
func (x *tracedSim) SetClock(v int64)                        { x.vt.SetClock(v) }
func (x *tracedSim) AtomicSvcNS(a transport.Addr) int64      { return x.vt.AtomicSvcNS(a) }
func (x *tracedSim) ChargeAtomic(a transport.Addr)           { x.vt.ChargeAtomic(a) }
func (x *tracedSim) ChargeSpin(a transport.Addr, from, to, cadence int64) int {
	return x.vt.ChargeSpin(a, from, to, cadence)
}

func (x *tracedSim) CASBacklog(a transport.Addr, old, new uint64, backlogNS int64) (uint64, bool) {
	s := x.t.begin()
	v, ok := x.vt.CASBacklog(a, old, new, backlogNS)
	x.t.end(vCAS, s)
	return v, ok
}

func (x *tracedSim) CAS16Backlog(a transport.Addr, old, new uint16, backlogNS int64) (uint16, bool) {
	s := x.t.begin()
	v, ok := x.vt.CAS16Backlog(a, old, new, backlogNS)
	x.t.end(vCAS16, s)
	return v, ok
}

// tracedBackend is the deployment the traced tree is built over: the real
// backend, except that every client thread's transport is decorated.
type tracedBackend struct {
	core.Backend
	tr *trace
}

func (b *tracedBackend) NewTransport(cs int) transport.Transport {
	inner := b.Backend.NewTransport(cs)
	x := tracedTransport{Transport: inner, t: b.tr.newTracer()}
	if vt, ok := inner.(transport.VirtualTimer); ok {
		return &tracedSim{tracedTransport: x, vt: vt}
	}
	return &x
}

// opTrace is the client side of the trace: one span per operation, its self
// time (span minus the verb spans that ran inside it on the same goroutine),
// and the time spent inside submit and wait at depth > 1.
type opTrace struct {
	issued          [nKinds]int64 // ops issued while recording was on
	n, ns           [nKinds]int64 // op spans recorded, and their total length
	childN, childNS [nKinds]int64 // verb spans inside them
	submit, wait    *stats.Hist
	raw             []rawSpan
}

func newOpTrace() *opTrace {
	return &opTrace{submit: stats.NewHist(), wait: stats.NewHist(), raw: make([]rawSpan, 0, rawOps)}
}

func (o *opTrace) record(k opKind, id int64, t *tracer, start, end int64) {
	cn, cns := t.takeChildren()
	o.n[k]++
	o.ns[k] += end - start
	o.childN[k] += cn
	o.childNS[k] += cns
	if id <= rawOps && len(o.raw) < cap(o.raw) {
		o.raw = append(o.raw, rawSpan{Name: kindNames[k], ID: id, Tracer: t.id, StartNS: start, EndNS: end})
	}
}

// merge folds another client's aggregates into o (raw spans excluded).
func (o *opTrace) merge(c *opTrace) {
	for k := range o.n {
		o.issued[k] += c.issued[k]
		o.n[k] += c.n[k]
		o.ns[k] += c.ns[k]
		o.childN[k] += c.childN[k]
		o.childNS[k] += c.childNS[k]
	}
	o.submit.Merge(c.submit)
	o.wait.Merge(c.wait)
}

// mergedOpTrace sums the op-side aggregates of every session's client.
func mergedOpTrace(ss []*session) *opTrace {
	ot := newOpTrace()
	for _, s := range ss {
		ot.merge(s.c.(*coreClient).ot)
	}
	return ot
}
