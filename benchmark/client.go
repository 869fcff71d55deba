package main

import (
	"sherman"
	"sherman/internal/core"
	"sherman/internal/stats"
)

// client is the seam between the load loop and the system under test. The
// untraced run drives the public sherman.Session, as a user would; the
// traced run drives core.Handle/core.Async — exactly what a Session wraps —
// over the span-recording transport, which the public API cannot inject.
//
// A client is owned by one goroutine. At depth > 1 it keeps its own FIFO of
// open futures: submit appends, waitOldest retires the head.
type client interface {
	// do runs one operation to completion (depth-1 workloads).
	do(p op) result
	submit(p op)
	// waitOldest returns the head future's result and its completion time on
	// the session clock.
	waitOldest() (result, int64)
	// now reads the session clock: host ns on TCP, virtual ns on the
	// simulator.
	now() int64
	flush() error
	// counters reads the session's cumulative counters; flush first.
	counters() counters
}

// counters are the per-session counts the metrics are deltas of.
type counters struct {
	roundTrips, writeBytes  int64
	cacheHits, cacheMisses  int64
	specReads, specFails    int64
	meanOutstanding, hiding float64
}

// ring is a fixed FIFO of fifoLen open futures (or their bookkeeping), so
// the load loop allocates nothing per operation.
type ring[T any] struct {
	buf     [fifoLen]T
	head, n int
}

func (r *ring[T]) push(v T) {
	r.buf[(r.head+r.n)%fifoLen] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % fifoLen
	r.n--
	return v
}

// --- untraced: the public API ----------------------------------------------

type sessionClient struct {
	s    *sherman.Session
	fifo ring[*sherman.Future]
}

func (c *sessionClient) do(p op) result {
	switch p.kind {
	case kPut:
		return result{err: c.s.PutE(p.key, p.value)}
	case kScan:
		kvs, err := c.s.ScanE(p.key, scanSpan)
		return result{kvs: kvs, err: err}
	default:
		v, found, err := c.s.GetE(p.key)
		return result{value: v, found: found, err: err}
	}
}

func (c *sessionClient) submit(p op) {
	var o sherman.Op
	switch p.kind {
	case kPut:
		o = sherman.PutOp(p.key, p.value)
	case kScan:
		o = sherman.ScanOp(p.key, scanSpan)
	default:
		o = sherman.GetOp(p.key)
	}
	c.fifo.push(c.s.Submit(o))
}

func (c *sessionClient) waitOldest() (result, int64) {
	f := c.fifo.pop()
	r := f.Wait()
	return result{value: r.Value, found: r.Found, kvs: r.KVs, err: r.Err}, f.CompleteAtV()
}

func (c *sessionClient) now() int64   { return c.s.VirtualNow() }
func (c *sessionClient) flush() error { return c.s.Flush() }

func (c *sessionClient) counters() counters {
	st := c.s.Stats()
	return counters{
		roundTrips: st.RoundTrips, writeBytes: st.WriteBytes,
		cacheHits: st.CacheHits, cacheMisses: st.CacheMisses,
		specReads: st.SpeculativeReads, specFails: st.SpeculativeFails,
		meanOutstanding: st.MeanOutstanding, hiding: st.LatencyHidingRatio,
	}
}

// --- traced: core, as sherman.Session drives it ----------------------------

type coreClient struct {
	h    *core.Handle
	a    *core.Async
	fifo ring[core.Pending]

	t   *tracer // the handle's own transport: verbs on this goroutine
	ot  *opTrace
	seq int64 // operations issued while recording; the op span id
	// inline marks clients whose submit runs the whole operation on this
	// goroutine (the simulator's executor), so the op span is the submit
	// call and its verbs are children.
	inline bool
}

func newCoreClient(t *core.Tree, cs, seed, depth int) *coreClient {
	h := t.NewHandle(cs, seed)
	x, ok := h.C.(*tracedTransport)
	if !ok {
		x = &h.C.(*tracedSim).tracedTransport
	}
	return &coreClient{h: h, a: h.NewAsync(depth), t: x.t, ot: newOpTrace(), inline: !ok}
}

// beginOp opens the op span when recording is on (start != 0): the op gets
// the next id, and verbs on this goroutine become its children.
func (c *coreClient) beginOp(p op) (start int64) {
	if start = c.t.begin(); start != 0 {
		c.seq++
		c.t.curOp = c.seq
		c.ot.issued[p.kind]++
		c.t.takeChildren()
	}
	return start
}

func coreOp(p op) core.Op {
	switch p.kind {
	case kPut:
		return core.Op{Kind: stats.OpInsert, Key: p.key, Value: p.value}
	case kScan:
		return core.Op{Kind: stats.OpRange, Key: p.key, Span: scanSpan}
	default:
		return core.Op{Kind: stats.OpLookup, Key: p.key}
	}
}

func coreResult(r core.OpResult) result {
	return result{value: r.Value, found: r.Found, kvs: r.KVs}
}

func (c *coreClient) do(p op) result {
	start := c.beginOp(p)
	r, _ := c.a.SubmitOp(coreOp(p)).Wait()
	if start != 0 {
		c.ot.record(p.kind, c.seq, c.t, start, nanotime())
	}
	c.t.curOp = 0
	return coreResult(r)
}

func (c *coreClient) submit(p op) {
	start := c.beginOp(p)
	c.fifo.push(c.a.SubmitOp(coreOp(p)))
	if start != 0 {
		end := nanotime()
		c.ot.submit.Record(end - start)
		if c.inline {
			c.ot.record(p.kind, c.seq, c.t, start, end)
		}
	}
	c.t.curOp = 0
}

func (c *coreClient) waitOldest() (result, int64) {
	p := c.fifo.pop()
	start := c.t.begin()
	r, done := p.Wait()
	if start != 0 {
		c.ot.wait.Record(nanotime() - start)
	}
	return coreResult(r), done
}

func (c *coreClient) now() int64 { return c.h.C.Now() }

func (c *coreClient) flush() error {
	c.a.Flush()
	return nil
}

// counters folds in the pipelined runners' own handles, as Session.Stats
// does.
func (c *coreClient) counters() counters {
	r, m := c.h.Rec, c.h.Metrics()
	ct := counters{
		roundTrips: m.RoundTrips, writeBytes: m.WriteBytes,
		cacheHits: r.CacheHits, cacheMisses: r.CacheMisses,
		specReads: r.SpecReads, specFails: r.SpecFails,
		meanOutstanding: r.PipelineDepths.Mean(), hiding: r.HidingRatio(),
	}
	c.a.ForEachWorker(func(w *core.Handle) {
		wm := w.Metrics()
		ct.roundTrips += wm.RoundTrips
		ct.writeBytes += wm.WriteBytes
		ct.cacheHits += w.Rec.CacheHits
		ct.cacheMisses += w.Rec.CacheMisses
		ct.specReads += w.Rec.SpecReads
		ct.specFails += w.Rec.SpecFails
	})
	return ct
}
