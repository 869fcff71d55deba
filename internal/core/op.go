package core

import (
	"sherman/internal/layout"
	"sherman/internal/stats"
)

// Op is one client operation in the unified model: every data-path request —
// point lookup, insert/update, delete, range scan — is the same value type,
// so mixed streams flow through one planner (Exec) and one async executor
// (Async) instead of per-kind entry points.
type Op struct {
	Kind stats.OpKind
	Key  uint64
	// Value is the OpInsert payload.
	Value uint64
	// Span bounds an OpRange result.
	Span int
}

// OpResult is the outcome of one Op. Lookups fill Value/Found; deletes fill
// Found; range scans fill KVs.
type OpResult struct {
	Value uint64
	Found bool
	KVs   []layout.KV
}

// cost is what one executed operation spent, for record: its round trips
// and, for a write that changed the tree, the bytes it wrote back.
type cost struct {
	rtrips    int64
	dataBytes int64
}

// execOne runs one operation to completion on the handle's current timeline.
// It is the only implementation of "run one operation": the synchronous
// entry points and both overlap mechanisms of the pipelined executor
// (async.go) call it, so the contract below holds on every path.
//
// A point insert or delete is a leaf group of one: it runs writeLeafGroup,
// the same lock, write-back and release as Exec's write units, over a
// one-op plan and result held in the handle (no allocation, and h.ex is
// never touched).
//
// Redo contract: a write whose commit doorbell was swallowed by a failover —
// the leaf's memory server died after the validating read, so mirror found
// the chunk re-keyed and raised h.redo — changed nothing durable and must
// not ack. writeLeafGroup retries it through the promoted chunk until a
// commit lands, and always returns with the flag consumed. An insert is an
// idempotent upsert; a retried delete sees the key again (nothing durable
// changed), so found stays truthful.
//
// Key 0 is reserved for writes and panics; a scan of Span <= 0 is empty.
func (h *Handle) execOne(op Op) (res OpResult, c cost) {
	if op.Key == 0 && op.Kind.IsWrite() {
		panic("core: key 0 is reserved")
	}
	h.m.BeginOp()
	switch op.Kind {
	case stats.OpLookup:
		res.Value, res.Found = h.lookupInner(op.Key)
	case stats.OpInsert, stats.OpDelete:
		h.one[0] = planOp{kind: op.Kind, key: op.Key, value: op.Value}
		h.oneRes[0] = OpResult{}
		_, c.dataBytes = h.writeLeafGroup(h.one[:], 0, h.oneRes[:])
		res = h.oneRes[0]
	case stats.OpRange:
		if op.Span > 0 {
			res.KVs = h.rangeInner(op.Key, op.Span)
		}
	}
	c.rtrips = h.m.OpRoundTrips
	return res, c
}

// record folds one completed operation into the handle's recorder. latency
// is whatever the caller's clock says the client observed.
func (h *Handle) record(op Op, latency int64, c cost) {
	h.Rec.RecordOp(op.Kind, latency)
	if op.Kind.IsWrite() {
		h.Rec.WriteRoundTrips.Record(int(c.rtrips))
		if c.dataBytes > 0 { // a delete of an absent key writes nothing back
			h.Rec.WriteSizes.Record(c.dataBytes)
		}
	}
}

// do is the synchronous client: one operation on the handle's own clock.
func (h *Handle) do(op Op) OpResult {
	t0 := h.C.Now()
	res, c := h.execOne(op)
	h.record(op, h.C.Now()-t0, c)
	return res
}

// Lookup returns the value stored under key.
func (h *Handle) Lookup(key uint64) (uint64, bool) {
	r := h.do(Op{Kind: stats.OpLookup, Key: key})
	return r.Value, r.Found
}

// Insert stores (key, value), updating in place when key exists (the paper
// folds updates into insert, §1). Key 0 is reserved.
func (h *Handle) Insert(key, value uint64) {
	h.do(Op{Kind: stats.OpInsert, Key: key, Value: value})
}

// Delete removes key, reporting whether it was present. Non-structural
// deletes clear the entry in place (§4.4); underfull leaves are tolerated
// rather than merged (see DESIGN.md §5).
func (h *Handle) Delete(key uint64) bool {
	return h.do(Op{Kind: stats.OpDelete, Key: key}).Found
}

// Range returns up to span key-value pairs with key >= from, in ascending
// key order. Like FG, Sherman's range query is not atomic with concurrent
// writes (§4.4): each leaf is read consistently, but the scan as a whole is
// not a snapshot.
func (h *Handle) Range(from uint64, span int) []layout.KV {
	return h.do(Op{Kind: stats.OpRange, Key: from, Span: span}).KVs
}
