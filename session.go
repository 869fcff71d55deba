package sherman

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"sherman/internal/core"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// Typed errors of the session API.
var (
	// ErrReservedKey rejects writes to key 0, the tree's deleted-entry
	// sentinel (§4.4).
	ErrReservedKey = core.ErrReservedKey
	// ErrBadComputeServer rejects a session on a compute server outside
	// [0, ComputeServers).
	ErrBadComputeServer = errors.New("sherman: compute server out of range")
	// ErrSessionDead reports that the session's compute server crashed
	// (Cluster.KillComputeServer, or a fault-injection schedule). The
	// session is permanently unusable — restarting the server does not
	// revive it; open a new session. An operation that died mid-flight was
	// either fully applied or had no effect, never anything in between.
	ErrSessionDead = errors.New("sherman: session's compute server crashed")
)

// OpKind names one operation class of the unified client model.
type OpKind int

// Operation kinds.
const (
	OpGet OpKind = iota
	OpPut
	OpDelete
	OpScan
)

// Op is one client operation. Every request — point get, put (insert or
// in-place update), delete, range scan — is the same value type, so mixed
// streams flow through one pipeline (Submit) and one batch planner (Exec).
type Op struct {
	Kind OpKind
	Key  uint64
	// Value is the OpPut payload.
	Value uint64
	// Span bounds an OpScan result.
	Span int
}

// PutOp stores value under key (insert or in-place update).
func PutOp(key, value uint64) Op { return Op{Kind: OpPut, Key: key, Value: value} }

// GetOp reads the value under key.
func GetOp(key uint64) Op { return Op{Kind: OpGet, Key: key} }

// DeleteOp removes key.
func DeleteOp(key uint64) Op { return Op{Kind: OpDelete, Key: key} }

// ScanOp reads up to span pairs with key >= from in ascending order.
func ScanOp(from uint64, span int) Op { return Op{Kind: OpScan, Key: from, Span: span} }

// Result is the outcome of one Op. Gets fill Value/Found, deletes fill
// Found, scans fill KVs; an invalid operation fills only Err and leaves the
// tree untouched.
type Result struct {
	Value uint64
	Found bool
	KVs   []KV
	Err   error
}

// Future is the pending result of one submitted operation.
//
// A future's lifetime ends at the session's next Submit after its first
// Wait: until then Wait and CompleteAtV repeat their answers, and from then
// on the session may reuse it for a later operation. A future that was
// never waited is never reused, and Flush and Exec reuse nothing, so
// holding several futures and waiting them in any order is fine as long as
// each is read before the Submit that follows its first Wait. Copy the
// Result out to keep it longer. Under TreeOptions.Poison the session
// drops spent futures instead of reusing them, and reading one past its
// lifetime panics.
type Future struct {
	s     *Session
	p     core.Pending
	pend  bool // p not yet waited on
	spent bool // waited: the session's next Submit may reuse it
	stale bool // poison mode: read after its lifetime ended
	res   Result
	done  int64
}

// errStaleFuture is the poison-mode panic of a future read past its
// lifetime.
const errStaleFuture = "sherman: Future read after the session's next Submit; a waited Future is valid only until then"

// Wait blocks until the operation has completed and returns its result. On
// the simulator the session clock advances to the operation's virtual
// completion time; on a real transport at PipelineDepth > 1 the operation is
// genuinely in flight and Wait blocks for it. Waiting again before the
// session's next Submit is free and returns the same Result; after that
// Submit the future may already carry another operation.
func (f *Future) Wait() Result {
	if f.stale {
		panic(errStaleFuture)
	}
	if !f.spent {
		if f.pend {
			f.pend = false
			var cres core.OpResult
			if err := f.s.run(func() { cres, f.done = f.p.Wait() }); err != nil {
				f.res, f.done = Result{Err: err}, f.s.h.C.Now()
			} else {
				f.res = resultFrom(cres)
			}
		}
		f.s.spend(f)
	}
	return f.res
}

// CompleteAtV returns the operation's completion time on the session's
// virtual clock (see Session.VirtualNow). On a real transport at
// PipelineDepth > 1 the completion time is unknown until the operation
// finishes: CompleteAtV returns 0 before the first Wait and the wall-clock
// completion (transport nanos) after. Like Wait, it is valid until the
// session's next Submit after the first Wait.
func (f *Future) CompleteAtV() int64 {
	if f.stale {
		panic(errStaleFuture)
	}
	return f.done
}

// Session is one client thread's interface to a tree, bound to one compute
// server. Sessions are not safe for concurrent use — they model exactly one
// client thread of the paper — so open one per goroutine. Any number of
// sessions may operate on the same tree concurrently.
//
// Every request is an Op. Submit pipelines it — a session opened with
// PipelineDepth(n) keeps up to n operations outstanding, overlapping their
// round trips the way the paper's clients run multiple coroutines per
// thread, so per-thread throughput climbs toward the fabric bound instead
// of being RTT-bound — and Exec plans a whole batch. PutE, GetE, DeleteE and
// ScanE are Submit-and-Wait for one operation.
type Session struct {
	h    *core.Handle
	a    *core.Async
	cs   int
	dead bool

	// Waited futures. Wait puts a future on spent; Submit takes one from
	// free, first swapping the lists when free is empty, so it only ever
	// takes a future waited before it. Both lists are sized to the
	// pipeline depth at open and never grow: a future that finds spent
	// full is left to the collector. Under poison, spent grows instead,
	// so that Submit can mark every future in it stale, and free stays
	// empty.
	free, spent []*Future
	poison      bool

	// Exec's translation scratch, recycled across batches so steady-state
	// batching allocates only the caller-owned results slice.
	cops []core.Op
	idx  []int
	cres []core.OpResult
}

// run executes fn, converting the crash of this session's compute server
// into the typed ErrSessionDead: every entry point funnels through it, so a
// dead session's calls return the error instead of touching the fabric —
// and never hang.
func (s *Session) run(fn func()) (err error) {
	if s.dead || !s.h.C.Alive() {
		s.dead = true
		return ErrSessionDead
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := transport.IsCrash(r); ok {
				s.dead = true
				err = ErrSessionDead
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// Dead reports whether the session's compute server has crashed. Dead
// sessions stay dead across a RestartComputeServer; open a new session.
func (s *Session) Dead() bool {
	if !s.dead && !s.h.C.Alive() {
		s.dead = true
	}
	return s.dead
}

var sessionSeq atomic.Int64

// SessionOption configures a session at open time.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	depth int
}

// PipelineDepth bounds the session's outstanding operations (clamped to
// >= 1). Depth 1 — the default — is the synchronous client; higher depths
// hide round-trip latency under Submit and Exec while remaining observably
// equivalent to sequential execution: the executor preserves per-key
// ordering, and scans order against all outstanding writes.
func PipelineDepth(n int) SessionOption {
	return func(c *sessionConfig) { c.depth = n }
}

// SessionAt opens a session on compute server cs (0 <= cs <
// ComputeServers), reporting ErrBadComputeServer for an out-of-range cs.
func (t *Tree) SessionAt(cs int, opts ...SessionOption) (*Session, error) {
	if err := t.c.checkCS(cs); err != nil {
		return nil, err
	}
	cfg := sessionConfig{depth: 1}
	for _, o := range opts {
		o(&cfg)
	}
	h := t.tr.NewHandle(cs, int(sessionSeq.Add(1)))
	a := h.NewAsync(cfg.depth)
	s := &Session{
		h: h, a: a, cs: cs,
		free:   make([]*Future, 0, a.Depth()),
		spent:  make([]*Future, 0, a.Depth()),
		poison: t.tr.Config().Poison,
	}
	if a.HasRunners() {
		// A dropped session's pipeline runners would otherwise block on
		// their next ticket forever. The cleanup holds the executor, which
		// does not reach the session. Elsewhere Close is a no-op, and a
		// cleanup would keep the executor, and through it the whole
		// deployment, alive for one more GC cycle.
		runtime.AddCleanup(s, (*core.Async).Close, a)
	}
	return s, nil
}

// ComputeServer returns the compute server this session runs on.
func (s *Session) ComputeServer() int { return s.cs }

// PipelineDepth returns the session's outstanding-operation bound.
func (s *Session) PipelineDepth() int { return s.a.Depth() }

// toCore validates op and translates it to the core representation.
func (op Op) toCore() (core.Op, error) {
	switch op.Kind {
	case OpGet:
		return core.Op{Kind: stats.OpLookup, Key: op.Key}, nil
	case OpPut:
		if op.Key == 0 {
			return core.Op{}, ErrReservedKey
		}
		return core.Op{Kind: stats.OpInsert, Key: op.Key, Value: op.Value}, nil
	case OpDelete:
		if op.Key == 0 {
			return core.Op{}, ErrReservedKey
		}
		return core.Op{Kind: stats.OpDelete, Key: op.Key}, nil
	case OpScan:
		return core.Op{Kind: stats.OpRange, Key: op.Key, Span: op.Span}, nil
	default:
		return core.Op{}, fmt.Errorf("sherman: unknown op kind %d", op.Kind)
	}
}

// resultFrom converts one core result.
func resultFrom(r core.OpResult) Result {
	return Result{Value: r.Value, Found: r.Found, KVs: r.KVs}
}

// Submit enqueues op on the session's pipeline and returns its future. Up
// to PipelineDepth operations run with overlapping round trips; Submit
// itself advances the session only by the issue cost (and, when the
// pipeline is full, to the next completion). Invalid operations — a put or
// delete of reserved key 0 — resolve immediately to a Result carrying a
// typed error (ErrReservedKey) without touching the tree, as does any
// operation on a dead session (ErrSessionDead). An operation in flight when
// the compute server crashes resolves to ErrSessionDead; it was either
// fully applied or had no effect.
func (s *Session) Submit(op Op) *Future {
	f := s.future()
	cop, err := op.toCore()
	if err == nil {
		err = s.run(func() { f.p = s.a.SubmitOp(cop) })
	}
	if err != nil {
		f.res, f.done = Result{Err: err}, s.h.C.Now()
	} else {
		f.pend, f.done = true, f.p.Done()
	}
	return f
}

// future ends the lifetime of every future waited since the last Submit and
// returns a blank one: a reused spent future, or a new one.
func (s *Session) future() *Future {
	if s.poison {
		for _, f := range s.spent {
			f.stale = true
		}
		clear(s.spent)
		s.spent = s.spent[:0]
		return &Future{s: s}
	}
	if len(s.free) == 0 {
		s.free, s.spent = s.spent, s.free
	}
	n := len(s.free)
	if n == 0 {
		return &Future{s: s}
	}
	f := s.free[n-1]
	s.free = s.free[:n-1]
	*f = Future{s: s}
	return f
}

// spend records f's first Wait: from the next Submit on, f may be reused.
func (s *Session) spend(f *Future) {
	f.spent = true
	if s.poison || len(s.spent) < cap(s.spent) {
		s.spent = append(s.spent, f)
	}
}

// Exec applies a mixed batch of operations, observably equivalent to
// executing them sequentially in submission order, and returns one result
// per operation. Point operations sharing a leaf share one traversal, one
// lock acquisition (when any writes) and one combined doorbell, and — at
// PipelineDepth > 1 — independent leaf groups overlap their round trips.
// Exec orders after all outstanding Submits and returns fully drained.
// Invalid operations carry a typed error in their Result slot; the rest of
// the batch still executes.
func (s *Session) Exec(ops []Op) []Result {
	results := make([]Result, len(ops)) // caller-owned, never recycled
	cops := s.cops[:0]
	idx := s.idx[:0]
	for i, op := range ops {
		cop, err := op.toCore()
		if err != nil {
			results[i].Err = err
			continue
		}
		cops = append(cops, cop)
		idx = append(idx, i)
	}
	cres := s.cres
	if cap(cres) < len(cops) {
		cres = make([]core.OpResult, len(cops))
	} else {
		cres = cres[:len(cops)]
	}
	err := s.run(func() { s.a.ExecInto(cops, cres) })
	if err != nil {
		// The server crashed mid-batch: the outcomes of the ops that went
		// to the fabric are unknown (each applied fully or not at all, but
		// the results died with the session). Locally-rejected ops keep
		// their known errors — they were never sent.
		for _, i := range idx {
			results[i] = Result{Err: err}
		}
	} else {
		for j, r := range cres {
			results[idx[j]] = resultFrom(r)
		}
	}
	s.cops, s.idx, s.cres = cops[:0], idx[:0], cres[:0]
	return results
}

// Flush drains the pipeline: it returns once every submitted operation has
// completed (the session clock advances to the last completion). A depth-1
// session's Flush is a no-op. On a session whose compute server crashed,
// Flush returns ErrSessionDead immediately instead of hanging — there is
// nothing left to drain; in-flight operations died with the server.
func (s *Session) Flush() error {
	return s.run(func() { s.a.Flush() })
}

// --- synchronous helpers: Submit and Wait for one operation ---------------

// submitWait pushes one validated core op through the pipeline and waits for
// its completion without going through a Future: a synchronous caller waits
// immediately, and the session's spent futures stay as they are.
func (s *Session) submitWait(cop core.Op) (core.OpResult, error) {
	var res core.OpResult
	err := s.run(func() { res, _ = s.a.SubmitOp(cop).Wait() })
	return res, err
}

// PutE stores value under key (insert or in-place update), reporting
// ErrReservedKey for key 0 — the tree's deleted-entry sentinel, §4.4 — and
// ErrSessionDead on a crashed session.
func (s *Session) PutE(key, value uint64) error {
	cop, err := PutOp(key, value).toCore()
	if err != nil {
		return err
	}
	_, err = s.submitWait(cop)
	return err
}

// GetE returns the value stored under key, reporting ErrSessionDead on a
// crashed session.
func (s *Session) GetE(key uint64) (uint64, bool, error) {
	r, err := s.submitWait(core.Op{Kind: stats.OpLookup, Key: key})
	return r.Value, r.Found, err
}

// DeleteE removes key, reporting whether it was present, ErrReservedKey for
// key 0, and ErrSessionDead on a crashed session.
func (s *Session) DeleteE(key uint64) (bool, error) {
	cop, err := DeleteOp(key).toCore()
	if err != nil {
		return false, err
	}
	r, err := s.submitWait(cop)
	return r.Found, err
}

// ScanE returns up to span pairs with key >= from in ascending key order,
// reporting ErrSessionDead on a crashed session. Like the paper's range
// query (§4.4), a scan is not atomic with concurrent writes: each leaf is
// read consistently, but the scan as a whole is not a snapshot.
func (s *Session) ScanE(from uint64, span int) ([]KV, error) {
	r, err := s.submitWait(core.Op{Kind: stats.OpRange, Key: from, Span: span})
	return r.KVs, err
}

// VirtualNow returns the session's virtual clock in nanoseconds — the time
// at which its most recent operation was issued (and, after Wait or Flush,
// completed) on the simulated fabric. Dividing operation counts by
// makespans of these clocks gives the throughput numbers the benchmarks
// report.
func (s *Session) VirtualNow() int64 { return s.h.C.Now() }

// Stats returns the session's accumulated measurements. Call Flush first on
// a pipelined session to fold outstanding operations in. On a real transport
// at PipelineDepth > 1, operations execute on pooled worker handles: their
// op counts and latencies are folded into the session's recorder at harvest,
// and the workers' own verb and cache counters are summed in here (so Flush
// first — a worker mid-operation is counted mid-flight).
func (s *Session) Stats() SessionStats {
	r := s.h.Rec
	m := s.h.Metrics()
	st := SessionStats{
		Lookups:      r.Ops[stats.OpLookup],
		Inserts:      r.Ops[stats.OpInsert],
		Deletes:      r.Ops[stats.OpDelete],
		Scans:        r.Ops[stats.OpRange],
		RoundTrips:   m.RoundTrips,
		WriteBytes:   m.WriteBytes,
		CASFailures:  m.CASFailures,
		CacheHits:    r.CacheHits,
		CacheMisses:  r.CacheMisses,
		Handovers:    r.Handovers,
		Reclaims:     r.Reclaims,
		P50LatencyNS: r.AllLatency.Percentile(50),
		P99LatencyNS: r.AllLatency.Percentile(99),

		CacheEvictions:     s.h.Cache().Evictions(),
		CacheInvalidations: r.CacheInvalidations,
		SpeculativeReads:   r.SpecReads,
		SpeculativeFails:   r.SpecFails,

		Batches:         r.Batches,
		BatchedOps:      r.BatchedOps,
		BatchLeafGroups: r.BatchLeafGroups,
		DoorbellBatches: m.DoorbellBatches,
		DoorbellOps:     m.DoorbellOps,

		PipelinedOps:       r.PipelinedOps,
		MeanOutstanding:    r.PipelineDepths.Mean(),
		LatencyHidingRatio: r.HidingRatio(),

		ReplicaWrites:   r.ReplicaWrites,
		ReplicaLagMaxNS: r.ReplicaLagMaxNS,
	}
	s.a.ForEachWorker(func(w *core.Handle) {
		wm := w.Metrics()
		st.RoundTrips += wm.RoundTrips
		st.WriteBytes += wm.WriteBytes
		st.CASFailures += wm.CASFailures
		st.DoorbellBatches += wm.DoorbellBatches
		st.DoorbellOps += wm.DoorbellOps
		wr := w.Rec
		st.CacheHits += wr.CacheHits
		st.CacheMisses += wr.CacheMisses
		st.Handovers += wr.Handovers
		st.Reclaims += wr.Reclaims
		st.CacheInvalidations += wr.CacheInvalidations
		st.SpeculativeReads += wr.SpecReads
		st.SpeculativeFails += wr.SpecFails
		st.ReplicaWrites += wr.ReplicaWrites
		if wr.ReplicaLagMaxNS > st.ReplicaLagMaxNS {
			st.ReplicaLagMaxNS = wr.ReplicaLagMaxNS
		}
	})
	return st
}

// SessionStats summarizes one session's activity. Latencies are in virtual
// nanoseconds over all completed operations.
type SessionStats struct {
	Lookups, Inserts, Deletes, Scans int64

	// RoundTrips counts network round trips; a doorbell-batched post of
	// dependent writes counts once (§4.5).
	RoundTrips int64
	// WriteBytes totals RDMA_WRITE payload bytes — the write-amplification
	// metric of Figure 14(c).
	WriteBytes int64
	// CASFailures counts failed remote lock CAS attempts (§3.2.2).
	CASFailures int64

	CacheHits, CacheMisses int64
	// CacheEvictions counts budget-pressure evictions of the compute
	// server's shared index cache (all sessions of the CS contribute).
	CacheEvictions int64
	// CacheInvalidations counts cache entries this session dropped for
	// staleness: failed speculative validations (the poisoned path suffix),
	// dead nodes observed mid-descent, and reclaimed-lock repairs.
	CacheInvalidations int64
	// SpeculativeReads counts leaf reads issued directly from a cached
	// level-1 parent (the leaf-direct jump); SpeculativeFails counts those
	// whose validation failed and fell back to a top-down descent.
	SpeculativeReads, SpeculativeFails int64
	// Handovers counts lock acquisitions satisfied by intra-CS handover.
	Handovers int64
	// Reclaims counts lock acquisitions that freed an orphaned lock left by
	// a crashed compute server (expired-lease reclamation).
	Reclaims int64

	P50LatencyNS, P99LatencyNS int64

	// Batches counts Exec invocations; BatchedOps the
	// point operations they carried (also included in the per-kind counts
	// above). BatchLeafGroups counts the leaf groups those batches formed —
	// BatchedOps/BatchLeafGroups is the traversal-and-lock amortization the
	// planner achieved.
	Batches, BatchedOps, BatchLeafGroups int64
	// DoorbellBatches counts multi-command doorbell posts issued by this
	// session's verbs; DoorbellOps the commands they carried (§4.5).
	DoorbellBatches, DoorbellOps int64

	// PipelinedOps counts operations issued at PipelineDepth > 1;
	// MeanOutstanding is the mean outstanding depth observed at issue.
	PipelinedOps    int64
	MeanOutstanding float64
	// LatencyHidingRatio is summed operation latencies over the union of
	// their execution intervals: 1.0 means fully serialized, depth-D
	// pipelines approach D. 0 means nothing was pipelined.
	LatencyHidingRatio float64

	// ReplicaWrites counts mirror WRITEs this session posted to replica
	// chunks (zero with replication off); ReplicaWrites over Inserts+Deletes
	// approximates the replication write amplification. ReplicaLagMaxNS is
	// the worst observed gap between a primary commit and the completion of
	// its mirror doorbell — the bounded replica lag (DESIGN.md §12).
	ReplicaWrites   int64
	ReplicaLagMaxNS int64
}

// Cursor iterates the tree in ascending key order, refilling leaf-at-a-time
// through ScanE so callers don't hand-roll resume-from-last-key loops. Like
// a scan, a cursor is not a snapshot: each refill observes concurrent writes.
type Cursor struct {
	s    *Session
	next uint64
	span int
	buf  []KV
	i    int
	done bool
	err  error
}

// Cursor opens a cursor positioned at the first key >= from. The refill
// granularity is one leaf's worth of entries.
func (s *Session) Cursor(from uint64) *Cursor {
	span := s.h.Tree().Config().Format.LeafCap
	if span < 1 {
		span = 16
	}
	return &Cursor{s: s, next: from, span: span}
}

// Next returns the next pair in ascending key order, or ok=false when the
// range is exhausted — or when a refill failed, which Err reports. Next
// never panics: a crashed compute server ends the iteration cleanly with
// Err returning ErrSessionDead.
func (c *Cursor) Next() (kv KV, ok bool) {
	for {
		if c.i < len(c.buf) {
			kv = c.buf[c.i]
			c.i++
			return kv, true
		}
		if c.done {
			return KV{}, false
		}
		buf, err := c.s.ScanE(c.next, c.span)
		if err != nil {
			c.err = err
			c.done = true
			return KV{}, false
		}
		c.buf = buf
		c.i = 0
		if len(c.buf) < c.span {
			c.done = true // the tree ran out before the span filled
		}
		if len(c.buf) == 0 {
			return KV{}, false
		}
		last := c.buf[len(c.buf)-1].Key
		if last == ^uint64(0) {
			c.done = true
		} else {
			c.next = last + 1
		}
	}
}

// Err returns the error that terminated the iteration early, or nil after a
// clean exhaustion. Check it once Next reports ok=false.
func (c *Cursor) Err() error { return c.err }
