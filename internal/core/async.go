package core

import (
	"sync"
	"sync/atomic"

	"sherman/internal/stats"
	"sherman/internal/transport"
)

// Async is one session's pipelined executor: it keeps up to depth operations
// outstanding over one Handle so that the round trips of independent
// operations overlap instead of serializing, the way Sherman's real clients
// run multiple coroutines per thread to hide RDMA latency. Every operation
// is Handle.execOne; the executor only schedules.
//
// One ordering state serves both fabrics: a window of the <= depth
// outstanding operations in issue order, and one predicate, conflicts, that
// says which of them a new operation must order after. What "order after"
// and "outstanding" mean is the only fork, chosen by the transport:
//
//   - Virtual time (the simulator). Real execution stays strictly
//     sequential in submission order and a slot records its operation's
//     completion horizon. Each operation runs on a detached timeline
//     (VirtualTimer.OnTimeline) starting at the driver clock — raised to
//     the horizon of every conflicting slot — so its verbs' latencies
//     overlap the other slots' while the issue-side NIC costs still
//     serialize on the shared resources. The handle's clock is the
//     coroutine scheduler: between operations it advances only by the
//     per-op issue cost, plus — when the window is full — to the earliest
//     horizon, like a scheduler that regains control at the next completion.
//   - Goroutines (a real transport at depth > 1). A slot holds a ticket
//     running on a persistent runner goroutine with its own worker Handle,
//     so up to depth operations are physically in flight through the
//     transport's multiplexed connections. Ordering after a slot drains its
//     ticket — strictly stronger than starting after it, and conflicts are
//     rare by design (a session hammering one key has no latency to hide).
//     Through transport.Parker the executor hands runnable counts over with
//     its tickets, so the verbs of runners woken together leave together:
//     a runner is counted from hand-off to ticket end, and an owner parked
//     on a ticket is counted by the runner completing it, until the call
//     that parked it returns.
//
// A real transport at depth 1 has nothing to overlap: operations run inline
// on the handle and their slots are already complete.
//
// Async is owned by one goroutine, like the Handle it wraps.
type Async struct {
	h       *Handle
	depth   int
	issueNS int64

	// win is the outstanding window in issue order. A slot whose horizon
	// the driver clock has passed is inert: every start is at least the
	// driver clock.
	win []slot

	// busyLo/busyHi bound the current merged busy interval, used to
	// accumulate the union of execution intervals (the latency-hiding
	// denominator). Tracking both ends keeps the union exact when an
	// order-stalled op raises the high mark past a later op's earlier start.
	busyLo, busyHi int64

	// runOp/runRes/runCost frame the operation runFn executes. runFn is
	// bound once at construction so SubmitOp passes no per-op closure through
	// the VirtualTimer interface — an escaping closure would cost an
	// allocation per pipelined operation (see the alloc gate).
	runOp   Op
	runRes  OpResult
	runCost cost
	runFn   func()

	// tasks feeds tickets to the runner goroutines; nil unless operations
	// overlap physically. Capacity depth: the window bounds in-flight
	// tickets to depth, so a send never blocks.
	tasks  chan *ticket
	nrun   int         // runners started; grown lazily up to depth
	freeTk []*ticket   // owner-side ticket pool; refilled by Pending.Wait
	closed atomic.Bool // tasks closed: the runners exit as they drain it

	mu      sync.Mutex
	workers []*Handle // runner handles, for stats folding
}

// slot is one outstanding operation of the window.
type slot struct {
	op   Op
	done int64   // completion horizon
	tk   *ticket // in flight on a runner; nil once the horizon is known
}

// ticket is one operation in flight on a runner goroutine: its completion
// signal and what the owner harvests from it.
type ticket struct {
	op   Op
	done chan struct{} // buffered cap 1; the runner sends one token on completion

	// park is the count hand-off with the owner (transport.Parker):
	// tkRunning until the owner parks on the ticket (tkParked — it gave its
	// count up, so the runner counts it before waking it) or the runner
	// finishes first (tkDone).
	park atomic.Uint32

	// Filled by the runner, read by the owner after the token.
	res            OpResult
	cost           cost
	crash          any
	startNS, endNS int64
	depthAtIssue   int
	harvested      bool // owner-only: folded into the session's recorder
}

const (
	tkRunning uint32 = iota
	tkParked
	tkDone
)

// workerSeed staggers worker-handle allocators across all sessions.
var workerSeed atomic.Int64

// conflicts reports whether later must order after earlier, an operation
// still outstanding when later is submitted — the whole ordering contract of
// the pipeline. A point operation orders after an outstanding write to its
// key, and a write also after outstanding reads of its key (which would
// otherwise observe it early). A scan observes exactly the writes submitted
// before it: it orders after every outstanding write, and later writes order
// after it; scans also keep submission order among themselves. Point reads
// write nothing another read or a scan could observe, so they overlap both
// freely.
func conflicts(earlier, later Op) bool {
	if earlier.Kind == stats.OpRange || later.Kind == stats.OpRange {
		return earlier.Kind != stats.OpLookup && later.Kind != stats.OpLookup
	}
	return (earlier.Kind.IsWrite() || later.Kind.IsWrite()) && earlier.Key == later.Key
}

// NewAsync wraps h in a pipelined executor bounded to depth outstanding
// operations (clamped to >= 1). Depth 1 is the synchronous client: ops run
// back-to-back on the handle's own clock with no issue overhead and no
// pipeline accounting.
func (h *Handle) NewAsync(depth int) *Async {
	if depth < 1 {
		depth = 1
	}
	a := &Async{h: h, depth: depth, win: make([]slot, 0, depth)}
	a.runFn = func() { a.runRes, a.runCost = a.h.execOne(a.runOp) }
	if depth > 1 {
		a.issueNS = h.tm.PipelineIssueNS
		if h.vt == nil {
			a.tasks = make(chan *ticket, depth)
		}
	}
	return a
}

// Depth returns the pipeline depth (the bound on outstanding operations).
func (a *Async) Depth() int { return a.depth }

// HasRunners reports whether operations run on runner goroutines, which
// happens on a real transport at depth > 1. It is the one case where Close
// has anything to do.
func (a *Async) HasRunners() bool { return a.tasks != nil }

// Pending is one submitted operation.
type Pending struct {
	a    *Async
	tk   *ticket
	res  OpResult
	done int64
}

// Done returns the operation's completion time when it is already known —
// virtual time on the simulator, where SubmitOp runs the op on its timeline
// before returning — and 0 while the op is still in flight on a runner.
func (p Pending) Done() int64 { return p.done }

// Wait blocks until the operation completes and returns its result and
// completion time (virtual on the simulator, where waiting advances the
// driver clock to it; wall-clock nanos on a real transport). A
// compute-server crash that killed the op re-panics here, in the owner
// goroutine. Owner-goroutine only, and at most once per Pending: the
// in-flight state recycles.
func (p Pending) Wait() (OpResult, int64) {
	tk := p.tk
	if tk == nil {
		p.a.h.C.AdvanceTo(p.done)
		return p.res, p.done
	}
	if !tk.harvested {
		for i := range p.a.win {
			if p.a.win[i].tk == tk {
				p.a.settle(i)
				break
			}
		}
	}
	p.a.release()
	// Nothing else can still hold the ticket — it is out of the window, off
	// the runners, and this Pending owned it — so it recycles here.
	res, end, crash := tk.res, tk.endNS, tk.crash
	p.a.freeTk = append(p.a.freeTk, tk)
	if crash != nil {
		panic(crash)
	}
	return res, end
}

// SubmitOp issues op behind the operations it conflicts with and returns
// its Pending. The driver (h.C.Now() between calls) does not wait for the
// completion — use Pending.Wait or Flush to observe it.
func (a *Async) SubmitOp(op Op) Pending {
	var after int64
	for i := 0; i < len(a.win); {
		switch s := a.win[i]; {
		case !conflicts(s.op, op):
			i++
		case s.tk != nil:
			a.await(i) // drops win[i]: re-check the same index
		default:
			after = max(after, s.done)
			i++
		}
	}
	if a.tasks == nil {
		a.runOp = op
		issueV, done := a.issue(op, after, a.runFn)
		res := a.runRes
		a.runRes = OpResult{} // don't pin a scan's KVs past its submission
		// Issue-to-completion: the latency a pipelined client observes (at
		// depth 1 it equals the execution latency).
		a.h.record(op, done-issueV, a.runCost)
		return Pending{a: a, res: res, done: done}
	}
	depthAtIssue := a.claim()
	tk := a.getTicket(op)
	tk.depthAtIssue = depthAtIssue
	a.win = append(a.win, slot{op: op, tk: tk})
	if a.nrun < len(a.win) {
		// Runners start lazily as the window fills, so a chain of dependent
		// ops never pays for transports it cannot use.
		a.nrun++
		go a.runner()
	}
	if a.h.pk != nil {
		a.h.pk.Hand() // the runner that takes tk is runnable until tk ends
	}
	a.tasks <- tk
	a.release()
	return Pending{a: a, tk: tk}
}

// claim makes room for one more outstanding operation — when the window is
// full the driver waits for the earliest completion, the backpressure that
// bounds the session to depth — and returns the depth the new op issues at.
func (a *Async) claim() int {
	if len(a.win) == a.depth {
		// The earliest horizon. Tickets have none yet (zero): the oldest wins.
		first := 0
		for i, s := range a.win {
			if s.done < a.win[first].done {
				first = i
			}
		}
		a.await(first)
	}
	depth := 1
	now := a.h.C.Now()
	for _, s := range a.win {
		if s.tk != nil || s.done > now {
			depth++
		}
	}
	return depth
}

// issue claims a slot for op and runs fn on a timeline starting at the
// driver clock, or at floor if that is later, returning the driver clock at
// issue and fn's completion horizon. On a real transport there is no
// timeline to detach: fn just runs, complete when issue returns.
func (a *Async) issue(op Op, floor int64, fn func()) (issueV, done int64) {
	h := a.h
	depthAtIssue := a.claim()
	h.C.Step(a.issueNS)
	issueV = h.C.Now()
	start := max(issueV, floor)
	done = h.onTimeline(start, fn)
	a.win = append(a.win, slot{op: op, done: done})
	a.recordPipeline(depthAtIssue, start, done)
	return issueV, done
}

// unit runs one planned group of an Exec batch (see batch.go) as a window
// operation and returns its completion horizon. The planner owns ordering
// inside a batch — groups of a segment have disjoint key ranges, and it
// floors a unit at whatever it must start after — and Exec drains the window
// before and after, so a unit's slot is never tested for conflicts.
func (a *Async) unit(floor int64, fn func()) int64 {
	_, done := a.issue(Op{}, floor, fn)
	return done
}

// settle waits for win[i] to complete and drops it from the window: the
// driver clock advances to a known horizon; a ticket is received (its one
// token, so the channel is drained by recycle time) and folded into the
// session's recorder. It returns the crash that killed the ticket's
// operation, if any. The ticket itself is not recycled here — a Pending may
// still hold it.
func (a *Async) settle(i int) (crash any) {
	s := a.win[i]
	a.win = append(a.win[:i], a.win[i+1:]...)
	tk := s.tk
	if tk == nil {
		a.h.C.AdvanceTo(s.done)
		return nil
	}
	a.block(tk)
	tk.harvested = true
	if tk.crash == nil { // a crashed op records nothing; the session is about to die
		a.h.record(tk.op, tk.endNS-tk.startNS, tk.cost)
		a.recordPipeline(tk.depthAtIssue, tk.startNS, tk.endNS)
	}
	return tk.crash
}

// block receives tk's completion token. An owner that has to wait gives
// its count up first, and the runner completing tk counts it again
// (runTicket); it keeps that count until the executor call that parked it
// returns (release) or it blocks again.
func (a *Async) block(tk *ticket) {
	if pk := a.h.pk; pk != nil && tk.park.CompareAndSwap(tkRunning, tkParked) {
		pk.Park()
		<-tk.done
		pk.Take()
		return
	}
	<-tk.done
}

// release gives up the count block took, as SubmitOp, Wait and Flush return:
// past them the owner may go quiet for as long as it likes.
func (a *Async) release() {
	if pk := a.h.pk; pk != nil && pk.Held() {
		pk.Park()
	}
}

// await is settle re-panicking a compute-server crash in the owner
// goroutine, where the session layer converts it to ErrSessionDead. The
// count block took goes first: the dead owner never posts again.
func (a *Async) await(i int) {
	if crash := a.settle(i); crash != nil {
		a.release()
		panic(crash)
	}
}

// Flush drains the pipeline: every submitted operation has completed and is
// in the session's past. The first crash observed re-panics after the drain,
// so the runners are quiescent when the session goes dead.
func (a *Async) Flush() {
	var crash any
	for len(a.win) > 0 {
		if c := a.settle(0); crash == nil {
			crash = c
		}
	}
	a.release()
	if crash != nil {
		panic(crash)
	}
}

// recordPipeline accumulates the depth sample and latency-hiding terms for
// one executed unit. Depth-1 executors skip it so synchronous sessions
// report clean (empty) pipeline metrics. The busy union is maintained as
// one merged interval [busyLo, busyHi]: issue order keeps execution
// intervals overlapping or adjacent, so extending either end counts
// exactly the uncovered part of each new interval (on the wall clock
// tickets settle mostly in issue order, so it stays a good estimate).
func (a *Async) recordPipeline(depth int, start, done int64) {
	if a.depth <= 1 {
		return
	}
	var busy int64
	switch {
	case start > a.busyHi || a.busyHi == 0:
		busy = done - start
		a.busyLo, a.busyHi = start, done
	default:
		if start < a.busyLo {
			busy += a.busyLo - start
			a.busyLo = start
		}
		if done > a.busyHi {
			busy += done - a.busyHi
			a.busyHi = done
		}
	}
	a.h.Rec.RecordPipelineOp(depth, done-start, busy)
}

// Exec applies a mixed batch through the planner (see batch.go) with each
// planned unit — a leaf group or a scan — running as a window operation, so
// the batch combines per-leaf amortization with cross-group latency hiding.
// Exec orders after everything already outstanding and returns fully
// drained, so its results are plain values, not futures.
func (a *Async) Exec(ops []Op) []OpResult { return a.h.exec(a, ops) }

// ExecInto is Exec writing its results into the caller's slice (len must
// equal len(ops)) — the allocation-free variant for callers that recycle a
// results buffer across batches.
func (a *Async) ExecInto(ops []Op, results []OpResult) { a.h.execInto(a, ops, results) }

// --- goroutine overlap -------------------------------------------------------

// The executor's own cost is client CPU that a 1-core host cannot overlap
// with anything, so this path is deliberately lean: runners are persistent
// (no goroutine spawn per op, no handle pool handoff), and tickets and their
// completion channels recycle through an owner-side free list. It is
// deadlock-free by construction: every submitted ticket is conflict-free
// (the owner drained its conflicts first), runners never wait on other
// tickets, and in-flight tickets never exceed started runners.

// getTicket recycles a pooled ticket or allocates one. The done channel is
// reusable: its single token was received before the ticket was recycled.
func (a *Async) getTicket(op Op) *ticket {
	n := len(a.freeTk)
	if n == 0 {
		return &ticket{op: op, done: make(chan struct{}, 1)}
	}
	tk := a.freeTk[n-1]
	a.freeTk = a.freeTk[:n-1]
	*tk = ticket{op: op, done: tk.done}
	return tk
}

// runner is one persistent worker goroutine with its own transport handle.
func (a *Async) runner() {
	h := a.h.t.NewHandle(int(a.h.C.CSID()), int(workerSeed.Add(1)))
	a.mu.Lock()
	a.workers = append(a.workers, h)
	a.mu.Unlock()
	for tk := range a.tasks {
		runTicket(h, tk)
	}
}

// runTicket executes one ticket on h and publishes the completion token. A
// compute-server crash is captured into the ticket (the owner re-panics
// it); any other panic is a protocol bug and propagates. The runner holds
// the count SubmitOp handed over with tk until the token is sent.
func runTicket(h *Handle, tk *ticket) {
	if h.pk != nil {
		h.pk.Take()
	}
	tk.startNS = h.C.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := transport.IsCrash(r); !ok {
					panic(r)
				}
				tk.crash = r
			}
		}()
		tk.res, tk.cost = h.execOne(tk.op)
	}()
	tk.endNS = h.C.Now()
	if tk.park.Swap(tkDone) == tkParked {
		h.pk.Hand() // the owner is parked on tk: count it before waking it
	}
	tk.done <- struct{}{}
	if h.pk != nil {
		h.pk.Park()
	}
}

// Close ends the runner goroutines once the tickets already handed to them
// drain; nothing may be submitted after. Without it a runner blocks on its
// next ticket forever, pinning the tree, cache and lock tables its handle
// reaches. Idempotent, and a no-op where no runner ever starts (the
// simulator, depth 1).
func (a *Async) Close() {
	if a.tasks != nil && a.closed.CompareAndSwap(false, true) {
		close(a.tasks)
	}
}

// ForEachWorker visits the runners' worker handles (none on the simulator or
// at depth 1). Call after Flush: workers must be quiescent, since their
// per-handle counters are read without synchronization.
func (a *Async) ForEachWorker(fn func(*Handle)) {
	a.mu.Lock()
	ws := append([]*Handle(nil), a.workers...)
	a.mu.Unlock()
	for _, h := range ws {
		fn(h)
	}
}
