package core

import (
	"errors"

	"sherman/internal/alloc"
	"sherman/internal/deploy"
	"sherman/internal/layout"
	"sherman/internal/transport"
)

// This file is the tree side of live chunk migration (internal/migrate is
// the orchestration engine on top). A chunk migrates node by node under the
// ordinary HOCL node locks:
//
//  1. The whole chunk's forwarding entry is installed first (old chunk →
//     fresh chunk on the target server, offsets preserved), so a reader that
//     observes any killed node can chase to its copy in one hop.
//  2. MoveNode locks the node, writes its image to the target address, and
//     kills the original in the same combined doorbell that releases the
//     lock — the kill write is the commit point: before it, readers and
//     writers use the original; after it, they observe a dead node, consult
//     the forwarding map, and land on the copy.
//  3. Repoint swings the parent's child pointer (or the superblock root
//     pointer) to the new address through the ordinary locked write path, so
//     steady-state traversals stop paying the forwarding hop.
//  4. The engine invalidates the compute-side index/top caches. The
//     forwarding entry stays installed — one map entry per migrated chunk —
//     so references still in flight, and the stale sibling pointers of the
//     chunk's left neighbors, keep resolving no matter how late they are
//     consulted (old addresses stay dead forever — chunks are never
//     reused). Entries of a migration whose owning compute server crashed
//     are drained by the recovery sweep once it has repaired every parent
//     pointer (DrainDeadForwarding).
//
// Crash safety: a migrating compute server can die between any two verbs.
// Before the kill write the original is intact (its lock reclaims by lease
// expiry, like any crashed writer's); after it the forwarding entry — which
// is compute-side shared state that survives the crash — keeps the node
// reachable in one hop until the recovery sweep repairs the parent pointer
// and drains the entry (see recover.go).

// ErrMoved reports that the node at a migration source address was already
// dead — concurrently migrated, or freed — so there is nothing to move; the
// node-I/O layer's retry on a forwarded address is the read-side analogue.
var ErrMoved = errors.New("core: node moved")

// ErrLostTarget reports that a migration target chunk lost its memory server
// before the node copy became durable; the original stays live at its source
// and the engine skips (or re-plans) the move.
var ErrLostTarget = errors.New("core: migration target lost its server")

// chase resolves an address that turned out dead through the cluster's
// forwarding map: ok=true means the node migrated and now lives at the
// returned address (same offset in the relocated chunk). A traversal
// chases one hop per chunk generation — entries are installed before the
// first kill of a chunk, so the copy is always reachable, and steady-state
// repointing makes even the single hop transient.
func (h *Handle) chase(addr transport.Addr) (transport.Addr, bool) {
	fwd, ok := h.fwd.Resolve(addr)
	if !ok {
		return transport.NilAddr, false
	}
	h.C.Step(h.tm.LocalStepNS)
	h.Rec.ForwardHops++
	return fwd, true
}

// MovedNode describes a node MoveNode relocated, with what Repoint needs.
type MovedNode struct {
	Level      uint8
	LowerFence uint64
}

// MoveNode relocates the live node at src to dst: lock, validated read,
// one-sided copy to dst, then kill-and-release in one combined doorbell.
// The caller must have installed the chunk's forwarding entry first, and
// owns dst (a fresh, never-referenced address). Returns ErrMoved when src
// is already dead.
func (h *Handle) MoveNode(src, dst transport.Addr) (MovedNode, error) {
	g := h.t.locks.Lock(h.C, src)
	if g.Reclaimed() {
		h.Rec.Reclaims++
		if h.cache.InvalidateAddr(src) {
			h.Rec.CacheInvalidations++
		}
	}
	n, _ := h.readNode(src, h.nodeBuf)
	if !n.Alive() {
		h.unlockWrite(g, nil)
		return MovedNode{}, ErrMoved
	}
	mv := MovedNode{Level: n.Level(), LowerFence: n.LowerFence()}
	// The copy must be durable at dst before the original dies; dst is
	// unreachable until then (no forwarding consumer sees a live original).
	// Under replication the copy mirrors to dst's chunk replicas too, so the
	// relocated node is failover-covered from its first instant.
	h.writeMirrored(dst, n.B)
	if h.takeRedo() {
		// dst's chunk was re-keyed by a failover mid-copy: the image never
		// became durable, so the original must stay alive and authoritative.
		h.unlockWrite(g, nil)
		return MovedNode{}, ErrLostTarget
	}
	if h.t.cfg.Format.Mode == layout.Checksum {
		// A checksum node must stay internally consistent even when dead,
		// or lock-free readers would spin on the torn image instead of
		// noticing the free bit: kill by rewriting the whole node.
		n.SetAlive(false)
		n.UpdateChecksum()
		h.unlockWrite(g, []transport.WriteOp{{Addr: src, Data: n.B}})
	} else {
		h.unlockWrite(g, []transport.WriteOp{{Addr: src.Add(layout.AliveOffset), Data: []byte{0}}})
	}
	return mv, nil
}

// maxRepointRetries bounds how often Repoint re-resolves the parent under
// racing splits before giving up; an unrepointed parent only costs readers
// the forwarding hop (and is repaired by the recovery sweep if the entry
// must drain).
const maxRepointRetries = 8

// Repoint swings the pointer referencing the moved node from old to new:
// the superblock root pointer when the node was the root, otherwise the
// covering parent's child slot, through the ordinary locked write path.
// Returns true when the reference now names new (even if another thread got
// there first).
func (h *Handle) Repoint(mv MovedNode, old, new transport.Addr) bool {
	for attempt := 0; attempt < maxRepointRetries; attempt++ {
		// Read the superblock pointer raw — refreshRoot would chase the
		// forwarding hop and hide exactly the staleness we came to repair.
		sbRoot, _ := deploy.ReadRoot(h.C)
		if sbRoot == old {
			if deploy.CASRoot(h.C, old, new, mv.Level) {
				h.cache.SetRoot(new, mv.Level)
				return true
			}
			continue // root raced (grew, or someone repointed already)
		}
		if sbRoot == new {
			return true
		}
		_, rootLvl := h.refreshRoot()
		if rootLvl <= mv.Level {
			// The tree shrank below the node's level — only transiently
			// possible while the root swings; retry.
			continue
		}
		switch h.repointChild(mv.Level+1, mv.LowerFence, old, new) {
		case repointDone:
			return true
		case repointStale:
			continue
		case repointLost:
			// The covering parent references neither old nor new: a racing
			// structural change owns this edge now. Leave it to forwarding
			// and the recovery sweep.
			return false
		}
	}
	return false
}

// repointOutcome is repointChild's tri-state result.
type repointOutcome int

const (
	repointDone  repointOutcome = iota // parent now references new
	repointStale                       // steering went stale; re-resolve
	repointLost                        // parent references something else
)

// repointChild locks the internal node at parentLevel covering key and
// swaps its child pointer old → new.
func (h *Handle) repointChild(parentLevel uint8, key uint64, old, new transport.Addr) repointOutcome {
	addr, ce := h.locateInternal(key, parentLevel)
	r, ok := h.seek(key, parentLevel, intentWrite, addr, ce, h.nodeBuf, nil, nil)
	if !ok {
		return repointStale
	}
	in := layout.AsInternal(r.n)
	h.C.Step(h.tm.LocalStepNS)
	child, idx := in.ChildFor(key)
	switch child {
	case old:
		in.SetChild(idx, new)
		if h.t.cfg.Format.Mode == layout.TwoLevel {
			in.BumpNodeVersions()
		} else {
			in.UpdateChecksum()
		}
		h.unlockWrite(r.g, []transport.WriteOp{{Addr: r.addr, Data: in.B}})
		if h.takeRedo() {
			// The parent's chunk was re-keyed mid-commit: re-resolve and
			// retry at the promoted parent.
			return repointStale
		}
		h.cacheNode(r.addr, in.Node)
		return repointDone
	case new:
		h.unlockWrite(r.g, nil)
		return repointDone
	default:
		h.unlockWrite(r.g, nil)
		return repointLost
	}
}

// ChunkNode is one reachable node CollectChunk found inside a chunk.
type ChunkNode struct {
	Addr       transport.Addr
	Level      uint8
	LowerFence uint64
}

// CollectChunk is CollectChunks for a single chunk.
func (h *Handle) CollectChunk(ck alloc.ChunkID) []ChunkNode {
	return h.CollectChunks(map[alloc.ChunkID]bool{ck: true})[ck]
}

// CollectChunks walks the tree once with timed reads and buckets every
// parent-referenced node homed in one of the requested chunks, parents
// before children within each bucket (so migrating in order repoints
// through already-moved ancestors naturally). One walk serves a whole
// migration plan — the walk costs a read per reachable node, so doing it
// per chunk would make a plan quadratic in tree size.
//
// Only nodes reachable through parent edges are collected — deliberately
// not fresh split halves reachable only via a sibling pointer: their
// writer's insertParent is still in flight holding the original address,
// and migrating such a node would let that racing insert install a pointer
// to the killed original. Once the separator lands (or a recovery sweep
// completes the split), the next collection pass sees the node — drains
// loop until a walk comes back empty.
func (h *Handle) CollectChunks(cks map[alloc.ChunkID]bool) map[alloc.ChunkID][]ChunkNode {
	w := &chunkWalk{
		h:    h,
		cks:  cks,
		seen: make(map[transport.Addr]bool),
		out:  make(map[alloc.ChunkID][]ChunkNode, len(cks)),
		buf:  make([]byte, h.t.cfg.Format.NodeSize),
	}
	root, _ := h.refreshRoot()
	w.visit(root)
	return w.out
}

// chunkWalk carries the collection state; one read buffer serves the whole
// walk (children are copied out before recursing).
type chunkWalk struct {
	h    *Handle
	cks  map[alloc.ChunkID]bool
	seen map[transport.Addr]bool
	out  map[alloc.ChunkID][]ChunkNode
	buf  []byte
}

func (w *chunkWalk) visit(addr transport.Addr) {
	if addr.IsNil() || w.seen[addr] {
		return
	}
	w.seen[addr] = true
	n, _ := w.h.readNode(addr, w.buf)
	if !n.Alive() {
		return
	}
	if ck := alloc.ChunkOf(addr); w.cks[ck] {
		w.out[ck] = append(w.out[ck], ChunkNode{Addr: addr, Level: n.Level(), LowerFence: n.LowerFence()})
	}
	if n.Level() == 0 {
		return
	}
	in := layout.AsInternal(n)
	children := make([]transport.Addr, 0, in.Count()+1)
	children = append(children, in.Leftmost())
	for _, s := range in.Separators() {
		children = append(children, s.Child)
	}
	for _, c := range children {
		w.visit(c)
	}
}

// copyPaceStride is how many chunk slots CopyChunk copies between Pace
// callbacks, so a re-replication sweep inside a paced benchmark window keeps
// its clock inside the gate like any other worker.
const copyPaceStride = 64

// CopyChunk copies every node slot of chunk src onto the same offsets of the
// chunk at dstBase, and returns the number of non-empty slots copied. It is
// the bulk-copy half of re-replication: the caller registers dstBase's chunk
// as a mirror target of src first (so writes committed during the copy reach
// it as mirrors), then CopyChunk backfills everything older.
//
// Each slot is copied under its node lock — the same lock every writer holds
// while mirroring — so a slot's copy can never overwrite a fresher mirror
// with stale bytes. The scan is a raw grid walk at node-size strides rather
// than a tree walk: it also reaches freed nodes and fresh split halves that
// are only sibling-reachable (which CollectChunks deliberately skips), and a
// replica must replicate those bytes too. All-zero slots (never-carved tail
// of a partially filled chunk, or reads off a just-died source server, which
// zero-fill) are skipped, never written — so a racing source death degrades
// the copy to a no-op instead of clobbering mirrored data on the target.
func (h *Handle) CopyChunk(src alloc.ChunkID, dstBase transport.Addr) int {
	nodeSize := h.t.cfg.Format.NodeSize
	base := src.ChunkBase()
	copied := 0
	for off, slot := uint64(0), 0; off+uint64(nodeSize) <= transport.DefaultChunkSize; off, slot = off+uint64(nodeSize), slot+1 {
		if slot%copyPaceStride == 0 {
			if !h.t.cl.MSAlive(int(src.MS)) {
				break // source died; its failover owns the chunk now
			}
			if h.Pace != nil {
				h.Pace(h.C.Now())
			}
		}
		a := base.Add(off)
		g := h.t.locks.Lock(h.C, a)
		h.C.Read(a, h.nodeBuf)
		if !allZero(h.nodeBuf) {
			h.C.Write(dstBase.Add(off), h.nodeBuf)
			copied++
		}
		h.unlockWrite(g, nil)
	}
	return copied
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Backend exposes the tree's deployment interface.
func (t *Tree) Backend() Backend { return t.cl }

// InvalidateChunk purges every compute server's cache of entries located
// in — or steering into — the migrated chunk, so steady-state traversals
// stop resolving through addresses that just died. The per-chunk index
// makes each purge O(affected entries) — pinned top entries included — so
// migration no longer pays a predicate scan over the whole cache (or a
// wholesale top flush) per chunk. Returns the number of entries dropped.
func (t *Tree) InvalidateChunk(ck alloc.ChunkID) int {
	dropped := 0
	for _, ic := range t.caches {
		dropped += ic.InvalidateChunk(ck)
	}
	return dropped
}

// DrainDeadForwarding removes forwarding entries installed by compute
// servers that have since crashed. Call only after a complete recovery
// sweep: the sweep repaired every parent pointer, so nothing references the
// old addresses anymore.
func (t *Tree) DrainDeadForwarding() int {
	return t.cl.Forwarding().DropDead(t.cl.CSAlive)
}
