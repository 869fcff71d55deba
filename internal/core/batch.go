package core

import (
	"cmp"
	"slices"

	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// This file is the mixed-operation batch planner on top of the shared
// node-I/O layer (nodeio.go). Exec takes one stream of Ops — lookups,
// inserts, deletes and scans interleaved — sorts the point operations of
// each scan-delimited segment by key (stable, so same-key operations keep
// submission order), and walks the resulting leaf groups: consecutive
// operations covered by one leaf share one traversal and, when any of them
// writes, one lock acquisition and one combined write-backs+release
// doorbell (§4.5), where sequential execution pays a traversal, a lock and
// a doorbell per operation. Read-only groups are served from a single
// lock-free validated read, exactly like the sequential lookup path. When
// the right sibling's lock hashes onto the very GLT slot the executor
// already holds, the guard is reused across the leaf boundary (hocl.
// SameSlot).
//
// Equivalence argument: operations on different keys commute for both final
// state and per-op results, and operations on the same key land adjacently
// in the stable sort, still in submission order — a lookup sees exactly the
// writes submitted before it. Scans are not reordered: each executes at its
// position between fully-applied point segments.

// planOp pairs one planned point operation with its position in the
// caller's slice so results map back to submission order.
type planOp struct {
	kind       stats.OpKind
	key, value uint64
	pos        int
}

// sortPlanOps orders ops by key, stable in submission order, so the
// executor visits each leaf exactly once per segment and same-key
// operations apply in the order the caller issued them (last Put wins,
// lookups see prior writes — like the sequential path). slices.
// SortStableFunc sorts in place (block-swap symmerge), where sort.
// SliceStable paid a reflection-built swapper allocation per call — the
// single largest allocation source of the batch hot path.
func sortPlanOps(ops []planOp) {
	slices.SortStableFunc(ops, func(a, b planOp) int { return cmp.Compare(a.key, b.key) })
}

// leafCovers reports whether key falls inside the node's fence range.
func leafCovers(n layout.Node, key uint64) bool {
	return key >= n.LowerFence() && (n.UpperFence() == layout.NoUpperBound || key < n.UpperFence())
}

// pace yields to the harness's clock gate between leaf groups (no lock is
// held at these points, so blocking in real time is safe).
func (h *Handle) pace() {
	if h.Pace != nil {
		h.Pace(h.C.Now())
	}
}

// opCounts tallies ops per kind, excluding scans (which record
// individually), and returns the point-op total.
func opCounts(ops []Op) (counts [stats.NumOpKinds]int64, points int64) {
	for _, op := range ops {
		if op.Kind != stats.OpRange {
			counts[op.Kind]++
			points++
		}
	}
	return counts, points
}

// Exec applies a mixed batch of operations, observably equivalent to
// executing them sequentially in submission order, and returns one result
// per operation. Point operations sharing a leaf share one traversal, one
// lock acquisition (when any writes) and one combined doorbell. Key 0 is
// reserved for inserts and deletes and panics; callers wanting typed errors
// validate first (the session layer does).
func (h *Handle) Exec(ops []Op) []OpResult { return h.exec(nil, ops) }

// ExecInto is Exec writing its results into the caller's slice (len must
// equal len(ops)) — the allocation-free variant for callers that recycle a
// results buffer across batches.
func (h *Handle) ExecInto(ops []Op, results []OpResult) { h.execInto(nil, ops, results) }

func (h *Handle) exec(a *Async, ops []Op) []OpResult {
	if len(ops) == 0 {
		return nil
	}
	results := make([]OpResult, len(ops))
	h.execInto(a, ops, results)
	return results
}

// execInto runs one batch on the handle's own clock, or — with a non-nil
// executor — as window operations ordered after everything outstanding and
// drained before returning.
func (h *Handle) execInto(a *Async, ops []Op, results []OpResult) {
	if len(ops) == 0 {
		return
	}
	if len(results) != len(ops) {
		panic("core: ExecInto results length mismatch")
	}
	clear(results) // a recycled buffer must not leak stale slots (not-found lookups never write theirs)
	if a != nil {
		a.Flush()
	}
	h.m.BeginOp()
	t0 := h.C.Now()
	scanNS := h.execOps(ops, a, results)
	if a != nil {
		a.Flush()
	}
	if counts, points := opCounts(ops); points > 0 {
		// Scans record their own latency in execScan; exclude their time
		// from the (drained) window amortized over the point operations.
		lat := h.C.Now() - t0 - scanNS
		if lat < 0 {
			lat = 0
		}
		h.Rec.RecordMixedBatch(counts, lat)
	}
}

// execOps drives the planned walk and returns the virtual time the stream's
// scans consumed (so callers can exclude it from point-op accounting). When
// a is non-nil each unit — a leaf group or a scan — runs as one of the
// async executor's window operations, so units' round trips overlap; with a
// nil executor everything runs on the handle's own clock.
func (h *Handle) execOps(ops []Op, a *Async, results []OpResult) (scanNS int64) {
	i := 0
	// scanDone is the completion horizon of the latest scan unit: later
	// reads may overlap it (a scan writes nothing they could observe), but
	// the next segment's write units are floored at it.
	var scanDone int64
	for i < len(ops) {
		if ops[i].Kind == stats.OpRange {
			if ops[i].Span > 0 {
				scanDone = h.execScan(a, ops[i], &results[i])
				scanNS += h.ex.elapsed
			}
			i++
			continue
		}
		// One scan-delimited segment of point operations: the planner may
		// reorder across keys but a scan must observe exactly the writes
		// submitted before it, so segments never span a scan.
		j := i
		for j < len(ops) && ops[j].Kind != stats.OpRange {
			j++
		}
		seg := h.seg[:0]
		for k := i; k < j; k++ {
			op := ops[k]
			if op.Kind != stats.OpLookup && op.Key == 0 {
				panic("core: key 0 is reserved")
			}
			seg = append(seg, planOp{kind: op.Kind, key: op.Key, value: op.Value, pos: k})
		}
		h.seg = seg[:0] // retain growth; consumed before the next segment
		sortPlanOps(seg)
		h.execSegment(a, seg, results, scanDone)
		i = j
	}
	return scanNS
}

// execScan runs one range query at its position in the stream — ordered
// after every outstanding unit, since a scan must observe exactly the writes
// submitted before it — and returns its completion horizon. The virtual time
// it consumed is left in h.ex.elapsed.
func (h *Handle) execScan(a *Async, op Op, res *OpResult) (done int64) {
	h.ex.op, h.ex.res = op, res
	if a != nil {
		a.Flush()
		done = a.unit(0, h.ex.scanFn)
	} else {
		h.execScanBody()
	}
	h.ex.res = nil // don't pin the caller's results past the unit
	return done
}

// execScanBody is the scan unit framed by h.ex (bound once as h.ex.scanFn).
func (h *Handle) execScanBody() {
	t0 := h.C.Now()
	h.ex.res.KVs = h.rangeInner(h.ex.op.Key, h.ex.op.Span)
	h.ex.elapsed = h.C.Now() - t0
	h.Rec.RecordOp(stats.OpRange, h.ex.elapsed)
}

// execSegment walks one sorted point-op segment leaf group by leaf group. A
// group led by a lookup is served lock-free; a group led by a write locks
// the leaf and consumes every covered operation of any kind, lookups
// included (they read the locked image, which already reflects the group's
// earlier writes). Write units start no earlier than scanDone, the
// completion of the scan that delimited the segment; and when a read group
// stops at a covered write (same leaf), the following write unit is also
// floored at the read unit's completion — a real pipelined client must not
// let the write's round trips complete under a read of the leaf it clobbers.
func (h *Handle) execSegment(a *Async, ops []planOp, results []OpResult, scanDone int64) {
	i := 0
	var readDone int64
	for i < len(ops) {
		h.pace()
		if ops[i].kind == stats.OpLookup {
			i, readDone = h.execReadGroup(a, ops, i, results)
		} else {
			i = h.execWriteGroup(a, ops, i, results, max(readDone, scanDone))
			readDone = 0
		}
	}
}

// execReadGroup serves consecutive lookups from one lock-free validated
// leaf read, stopping at the leaf's fence or at the first write operation
// (which starts a locked group on the same leaf, so a lookup sorted after
// a same-key write still observes it). Returns the index of the first
// unconsumed op and, when the group stopped at a covered write, the read
// unit's completion horizon (the floor for that write's unit).
func (h *Handle) execReadGroup(a *Async, ops []planOp, start int, results []OpResult) (int, int64) {
	h.ex.ops, h.ex.results, h.ex.i = ops, results, start
	h.ex.sameLeafWrite = false
	var done int64
	if a == nil {
		h.execReadGroupBody()
	} else {
		done = a.unit(0, h.ex.readFn)
	}
	if !h.ex.sameLeafWrite {
		done = 0
	}
	h.ex.ops, h.ex.results = nil, nil
	return h.ex.i, done
}

// execReadGroupBody is the read unit framed by h.ex (bound once as
// h.ex.readFn).
func (h *Handle) execReadGroupBody() {
	ops, results, i := h.ex.ops, h.ex.results, h.ex.i
	retries := 0
	addr, ce := h.locateLeaf(ops[i].key)
	r, ok := h.seek(ops[i].key, 0, intentRead, addr, ce, h.leafBuf, &retries, nil)
	if !ok {
		h.Rec.ReadRetries.Record(retries)
		h.ex.i = i + 1 // ran off the right edge: the key cannot exist
		return
	}
	h.Rec.BatchLeafGroups++
	leaf := layout.AsLeaf(r.n)
	h.C.Step(h.tm.LocalStepNS) // scan the (unsorted) leaf locally

	// Keys whose entry-level check fails re-read via the sequential
	// path (§4.4) — after the group (the walk shares one leaf buffer),
	// but before any later group may write to their keys.
	var torn []planOp
	for i < len(ops) && ops[i].kind == stats.OpLookup && leafCovers(r.n, ops[i].key) {
		op := ops[i]
		if slot, hit := leaf.Find(op.key); hit {
			if h.t.cfg.Format.Mode == layout.TwoLevel && !leaf.EntryConsistent(slot) {
				torn = append(torn, op)
			} else {
				results[op.pos] = OpResult{Value: leaf.Value(slot), Found: true}
			}
		}
		// Every lookup the group serves shares its validated read, so
		// each records the group's retry count — keeping the per-lookup
		// retry distribution (Figure 14a) comparable to the sequential
		// path. Torn entries record again via their lookupInner re-read.
		h.Rec.ReadRetries.Record(retries)
		i++
	}
	// Evaluated before the torn re-reads below clobber the shared
	// leaf buffer r.n views.
	h.ex.sameLeafWrite = i < len(ops) && leafCovers(r.n, ops[i].key)
	h.ex.i = i
	for _, op := range torn {
		v, found := h.lookupInner(op.key)
		results[op.pos] = OpResult{Value: v, Found: found}
	}
}

// execWriteGroup runs one locked leaf group (writeLeafGroup) as Exec's write
// unit: on its own timeline behind the executor's window when a is non-nil.
// floor, when nonzero, bounds how early the unit may start on its timeline.
// Returns the index of the first unconsumed op.
func (h *Handle) execWriteGroup(a *Async, ops []planOp, start int, results []OpResult, floor int64) int {
	h.ex.ops, h.ex.results, h.ex.start = ops, results, start
	if a != nil {
		a.unit(floor, h.ex.writeFn)
	} else {
		h.execWriteGroupBody()
	}
	h.ex.ops, h.ex.results = nil, nil
	h.Rec.BatchLeafGroups++
	return h.ex.i
}

// execWriteGroupBody is the write unit framed by h.ex (bound once as
// h.ex.writeFn). It records the group as record does a point write: its
// round trips, redone attempts included, and the bytes it wrote back.
func (h *Handle) execWriteGroupBody() {
	rtrips := h.m.OpRoundTrips
	var dataBytes int64
	h.ex.i, dataBytes = h.writeLeafGroup(h.ex.ops, h.ex.start, h.ex.results)
	h.Rec.WriteRoundTrips.Record(int(h.m.OpRoundTrips - rtrips))
	if dataBytes > 0 {
		h.Rec.WriteSizes.Record(dataBytes)
	}
}

// chainToSibling attempts to continue a locked group into the right sibling
// without releasing the guard: possible when the next operation's key lives
// in the sibling and the sibling's lock hashes onto the GLT slot the guard
// already holds (§4.3's table hashing aliases distinct nodes, and a held
// slot excludes writers from every node it covers). The sibling is read
// into the shared leaf buffer, so the caller's queued writes must already
// be private copies — appendCopiedWrite guarantees that.
func (h *Handle) chainToSibling(g hocl.Guard, leaf layout.Leaf, nextKey uint64) (transport.Addr, layout.Leaf, bool) {
	sib := leaf.Sibling()
	if sib.IsNil() || !h.t.locks.SameSlot(g, sib) {
		return transport.NilAddr, layout.Leaf{}, false
	}
	n, _ := h.readNode(sib, h.leafBuf)
	if !n.Alive() || !n.IsLeaf() || !leafCovers(n, nextKey) {
		return transport.NilAddr, layout.Leaf{}, false
	}
	h.Rec.BatchChainedLeaves++
	return sib, layout.AsLeaf(n), true
}
