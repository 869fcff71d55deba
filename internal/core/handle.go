package core

import (
	"sync/atomic"

	"sherman/internal/alloc"
	"sherman/internal/cache"
	"sherman/internal/deploy"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// Handle is one client thread's interface to the tree. Handles are not safe
// for concurrent use; create one per goroutine.
type Handle struct {
	t     *Tree
	C     transport.Transport
	alloc *alloc.ThreadAllocator
	cache *cache.Cache

	// Flat views of the transport, cached at creation so the hot path pays
	// no repeated interface calls: m is the verb-counter block (stable
	// pointer), tm the cost-constant snapshot, vt the virtual-time
	// capability (nil on real transports — every use degrades gracefully),
	// av/pk the async-verb and runnable-count capabilities (nil on the
	// simulator), fwd/rep the backend's migration and replication state.
	m   *transport.Metrics
	tm  transport.Timing
	vt  transport.VirtualTimer
	av  transport.AsyncVerbs
	pk  transport.Parker
	fwd *alloc.Forwarding
	rep *alloc.ReplicaMap

	// Rec accumulates this thread's measurements.
	Rec *stats.Recorder

	// Pace, when non-nil, is called between the leaf groups of a batch —
	// points where no lock is held — with the handle's current virtual
	// time. The bench harness uses it to keep worker clocks inside the
	// simulation gate's window even across long batches; without it a
	// batch-issuing thread drifts far ahead in virtual time and drags lock
	// timelines with it, billing paced threads phantom spin storms.
	Pace func(nowNS int64)

	// Reusable node buffers (verbs copy synchronously, so reuse is safe).
	leafBuf []byte
	nodeBuf []byte

	// arena backs the remaining per-operation buffers — split siblings, new
	// roots, deferred write-back copies, scan read buffers — reset at each
	// top-level operation (see arena.go for the ownership rule).
	arena arena

	// wops is the write-op scratch behind every combined write-back+release
	// doorbell; relWops backs release-only unlocks (the two can be live at
	// once: a batch group's pending list while a nested seek move-right
	// releases a freshly-probed lock). Both are handed to hocl with spare
	// capacity so appending the release op never reallocates.
	wops    []transport.WriteOp
	relWops []transport.WriteOp

	// seg is the batch planner's segment scratch; kvs the sorted-entries
	// scratch of splits and scans; scanAddrs/scanReqs/scanBufs the parallel-
	// read scratch of range scans. All recycle across operations.
	seg       []planOp
	kvs       []layout.KV
	scanAddrs []transport.Addr
	scanReqs  []transport.ReadOp
	scanBufs  [][]byte

	// Mirror engine scratch (see mirror.go). replicated caches Rep != nil;
	// repWops/repMarks are the replica write ops of the current doorbell
	// group with their per-replica watermark cells; repTargets is the
	// per-chunk target snapshot; oneWop adapts single-write call sites to the
	// group path; repLo/repHi frame the per-MS group mirrorFn posts (bound
	// once at handle creation so OnTimeline takes no per-op closure);
	// mirrorEndV is the latest mirror completion awaiting a lag sample.
	replicated bool
	repWops    []transport.WriteOp
	repMarks   []*atomic.Int64
	repPends   []transport.Pending
	repTargets alloc.TargetSet
	oneWop     [1]transport.WriteOp
	repLo      int
	repHi      int
	mirrorEndV int64
	mirrorFn   func()
	// redo is raised by mirror when a write-back's chunk was re-keyed by a
	// concurrent failover (its server died after the validating read): the
	// primary write vanished into dead memory and no replica was mirrored, so
	// the op must retry through the promoted chunk before acking.
	redo bool

	// ex frames the batch planner's current unit: the read/write/scan unit
	// bodies are methods reading these fields, with their func values bound
	// once at creation, so the planner passes no per-unit closure through
	// the VirtualTimer interface (same trick as mirrorFn — an escaping
	// closure would cost a heap allocation per leaf group; see the alloc
	// gate).
	ex struct {
		ops           []planOp
		results       []OpResult
		op            Op
		res           *OpResult
		elapsed       int64
		i             int
		start         int
		sameLeafWrite bool
		scanFn        func()
		readFn        func()
		writeFn       func()
	}

	// poison mirrors Config.Poison: recycled scratch is filled with 0xDB so
	// reuse-after-release reads deterministic garbage.
	poison bool
}

// NewHandle creates a handle on compute server cs. seed staggers the
// allocator's round-robin start.
func (t *Tree) NewHandle(cs int, seed int) *Handle {
	c := t.cl.NewTransport(cs)
	h := &Handle{
		t:       t,
		C:       c,
		alloc:   t.cl.NewThreadAllocator(c, seed),
		cache:   t.caches[cs],
		Rec:     stats.NewRecorder(),
		leafBuf: make([]byte, t.cfg.Format.NodeSize),
		nodeBuf: make([]byte, t.cfg.Format.NodeSize),
		wops:    make([]transport.WriteOp, 0, 8),
		relWops: make([]transport.WriteOp, 0, 1),
		poison:  t.cfg.Poison,
	}
	h.m = c.Metrics()
	h.tm = c.Timing()
	h.vt, _ = c.(transport.VirtualTimer)
	h.av, _ = c.(transport.AsyncVerbs)
	h.pk, _ = c.(transport.Parker)
	h.ex.scanFn = h.execScanBody
	h.ex.readFn = h.execReadGroupBody
	h.ex.writeFn = h.execWriteGroupBody
	h.fwd = t.cl.Forwarding()
	h.arena.poison = t.cfg.Poison
	if rep := t.cl.Replicas(); rep != nil {
		h.replicated = true
		h.rep = rep
		h.repWops = make([]transport.WriteOp, 0, 8)
		h.repMarks = make([]*atomic.Int64, 0, 8)
		h.mirrorFn = h.postMirrorGroup
	}
	return h
}

// onTimeline runs fn on a detached timeline starting at start and returns
// the completion time — the virtual-time overlap trick of the pipelined
// executor and the mirror engine. On a real transport there is no timeline
// to detach: fn just runs, and "completion" is the wall clock afterwards.
func (h *Handle) onTimeline(start int64, fn func()) int64 {
	if h.vt == nil {
		fn()
		return h.C.Now()
	}
	return h.vt.OnTimeline(start, fn)
}

// SetClock forces the thread's clock to v on a virtual transport; real
// clocks cannot be set and the call is a no-op.
func (h *Handle) SetClock(v int64) {
	if h.vt != nil {
		h.vt.SetClock(v)
	}
}

// Metrics exposes the thread's verb counters.
func (h *Handle) Metrics() *transport.Metrics { return h.m }

// Timing exposes the transport's cost-constant snapshot.
func (h *Handle) Timing() transport.Timing { return h.tm }

// takeWops returns the emptied write-op scratch for one combined doorbell.
// The slice is dead once unlockWrite returns; keepWops recycles any growth.
func (h *Handle) takeWops() []transport.WriteOp { return h.wops[:0] }

// keepWops retains w's backing array (appends may have outgrown the original
// scratch) and, in poison mode, clears the recycled entries so a retained
// WriteOp reads zeroes instead of a plausible stale write.
func (h *Handle) keepWops(w []transport.WriteOp) {
	if h.poison {
		clear(w)
	}
	h.wops = w[:0]
}

// growForRelease guarantees one spare capacity slot so hocl's combined
// release append stays in place — the combined doorbell then posts from this
// very backing array with zero further allocation.
func growForRelease(w []transport.WriteOp) []transport.WriteOp {
	if len(w) < cap(w) {
		return w
	}
	nw := make([]transport.WriteOp, len(w), 2*cap(w)+4)
	copy(nw, w)
	return nw
}

// Tree returns the handle's tree.
func (h *Handle) Tree() *Tree { return h.t }

// Cache returns the compute server's unified index cache.
func (h *Handle) Cache() *cache.Cache { return h.cache }

// --- read-side machinery ----------------------------------------------------

// readNode fetches the node at a into buf, retrying until the node-level
// consistency check passes (version pair or checksum) and the wraparound
// guard is satisfied (§4.4: a read taking longer than 8 us could straddle a
// full 4-bit version cycle and must retry). Returns the view and the number
// of retries performed.
func (h *Handle) readNode(a transport.Addr, buf []byte) (layout.Node, int) {
	retries := 0
	wrap := 0
	for {
		start := h.C.Now()
		h.C.Read(a, buf)
		n := h.t.cfg.Format.View(buf)
		if !n.Consistent() {
			if !h.C.MSAlive(int(a.MS())) {
				// Dead memory zero-fills, so no retry will ever read a
				// consistent checksum. Return the zeroed view: it fails the
				// caller's Alive check, which chases to the promoted replica.
				// (A zeroed two-level node is version-consistent and exits
				// above on its own.)
				return n, retries
			}
			retries++
			continue
		}
		// A zero guard disables the heuristic (TCP): a wrap needs 16
		// write-backs of the node, or of one entry, inside one read verb's
		// apply on the server, each behind its own lock handoff of at least a
		// round trip (DESIGN.md §13).
		if h.t.cfg.Format.Mode == layout.TwoLevel && h.tm.WraparoundGuardNS > 0 &&
			h.C.Now()-start > h.tm.WraparoundGuardNS && wrap < h.t.cfg.maxWrapRetries() {
			wrap++
			retries++
			continue
		}
		return n, retries
	}
}

// refreshRoot re-reads the superblock and updates the CS's cache root. The
// superblock's level field is only a hint — the pointer CAS and the hint
// write are separate verbs, and a client can crash between them — so the
// authoritative level comes from the fetched root node itself (readers
// validate node levels everywhere else for the same reason).
func (h *Handle) refreshRoot() (transport.Addr, uint8) {
	for {
		root, _ := deploy.ReadRoot(h.C)
		n, _ := h.readNode(root, h.nodeBuf)
		if !n.Alive() {
			// The root node migrated but the superblock pointer is not yet
			// repointed: its relocated copy is the root. Without the chase a
			// reader would spin here until the migrator's CAS lands.
			if fwd, ok := h.chase(root); ok {
				root = fwd
				n, _ = h.readNode(root, h.nodeBuf)
			}
		}
		if n.Alive() {
			level := n.Level()
			h.cache.SetRoot(root, level)
			if level > 0 {
				h.cacheInternal(root, n, level)
			}
			return root, level
		}
		// The pointed-to node was freed under us (root moved); re-read.
	}
}

// cacheInternal offers an internal node to the unified cache, which copies
// what it admits; admission (pinned top levels, budgeted depth, frequency
// gate) is the cache's call. rootLevel is the level of the current
// traversal's root, which defines the pinned region.
func (h *Handle) cacheInternal(a transport.Addr, n layout.Node, rootLevel uint8) {
	h.cache.Insert(a, layout.AsInternal(n), rootLevel)
}

// cacheNode is cacheInternal against the cache's current notion of the root
// level, for call sites outside a descent (split refreshes, repoints).
func (h *Handle) cacheNode(a transport.Addr, n layout.Node) {
	_, rootLvl := h.cache.Root()
	h.cacheInternal(a, n, rootLvl)
}

// maxSiblingHops is the level-0 B-link walk length that signals stale
// pinned-top steering: a copy of a since-split top node passes fence/level
// validation (its fences were right when taken) yet steers every traversal
// left of the target, and only excess sibling hops reveal it.
const maxSiblingHops = 3

// noteSiblingHop counts one level-0 move-right and flushes the pinned top
// entries when the walk gets long enough to implicate stale steering.
func (h *Handle) noteSiblingHop(hops *int) {
	*hops++
	if *hops == maxSiblingHops {
		h.cache.FlushTop()
	}
}

func (h *Handle) lookupInner(key uint64) (uint64, bool) {
	retries := 0
	hops := 0
	defer func() { h.Rec.ReadRetries.Record(retries) }()
	addr, ce := h.locateLeaf(key)
	for {
		r, ok := h.seek(key, 0, intentRead, addr, ce, h.leafBuf, &retries, &hops)
		if !ok {
			return 0, false // the sibling walk ran off the right edge
		}
		leaf := layout.AsLeaf(r.n)
		h.C.Step(h.tm.LocalStepNS) // scan the (unsorted) leaf locally
		i, found := leaf.Find(key)
		if !found {
			return 0, false
		}
		if h.t.cfg.Format.Mode == layout.TwoLevel && !leaf.EntryConsistent(i) {
			// Entry-level check failed: re-read the leaf (§4.4).
			retries++
			addr, ce = r.addr, nil
			continue
		}
		return leaf.Value(i), true
	}
}
