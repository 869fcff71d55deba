package core

import (
	"sherman/internal/alloc"
	"sherman/internal/transport"
)

// This file is the write-side mirror engine of chunk-granularity replication
// (DESIGN.md §12). Every primary write a handle issues — the write-backs and
// kill bits riding a release doorbell, and the cross-MS writes that cannot —
// is first duplicated onto the replica chunks of the target's chunk, posted
// as combined per-server doorbells on a detached timeline (the mirrors do
// not lengthen the operation's critical path; rdma.Client.OnTimeline). The
// mirror is issued BEFORE the primary commit, so at any instant every
// replica holds a superset of the acked writes of its chunk: a memory
// server can die at any verb boundary and no acked write is lost.
//
// The engine is allocation-free in steady state: replica ops accumulate in
// a handle-owned scratch slice, per-chunk targets land in a handle-owned
// TargetSet, and the doorbell thunk handed to OnTimeline is bound once at
// handle creation.

// mirror duplicates ops onto the replica chunks of their targets and posts
// the copies as per-server doorbells on a detached timeline. No-op when the
// cluster does not replicate, and skips on-chip targets (lock words) and
// unreplicated chunks. Call before committing ops to their primaries.
func (h *Handle) mirror(ops []transport.WriteOp) {
	if !h.replicated || len(ops) == 0 {
		return
	}
	wops := h.repWops[:0]
	for _, op := range ops {
		if op.Addr.OnChip() {
			continue
		}
		if !h.rep.Targets(alloc.ChunkOf(op.Addr), &h.repTargets) {
			// In a replicated cluster every primary chunk is registered, so a
			// miss means a failover re-keyed this chunk between the caller's
			// validating read and now: its server is dead, the primary write
			// will be discarded, and mirroring is impossible. Flag the op for
			// redo — it has not acked yet, and the retry will chase the
			// forwarding entry to the promoted chunk.
			if !h.t.cl.MSAlive(int(alloc.ChunkOf(op.Addr).MS)) {
				h.redo = true
			}
			continue
		}
		inner := op.Addr.Off() % transport.DefaultChunkSize
		for i := 0; i < h.repTargets.N; i++ {
			wops = append(wops, transport.WriteOp{Addr: h.repTargets.Bases[i].Add(inner), Data: op.Data})
		}
	}
	h.repWops = wops
	if len(wops) > 0 {
		h.postMirrors()
	}
	h.repWops = wops[:0]
}

// nextServerGroup gathers the replica ops bound for the server of
// h.repWops[lo] into h.repWops[lo:hi] and returns hi. The partition is
// stable: each server's ops keep their program order.
func (h *Handle) nextServerGroup(lo int) (hi int) {
	ms := h.repWops[lo].Addr.MS()
	hi = lo + 1
	for i := hi; i < len(h.repWops); i++ {
		if h.repWops[i].Addr.MS() != ms {
			continue
		}
		// Rotate [hi, i] right by one, keeping same-server op order.
		op := h.repWops[i]
		copy(h.repWops[hi+1:i+1], h.repWops[hi:i])
		h.repWops[hi] = op
		hi++
	}
	return hi
}

// postMirrors posts the accumulated replica ops as one combined doorbell per
// server (nextServerGroup), each starting at the current virtual time on
// its own detached timeline — replica servers absorb the mirrors in
// parallel with the primary commit the caller issues next. The simulator
// applies a mirror as it is posted, so every replica holds it before that
// commit.
func (h *Handle) postMirrors() {
	if h.vt == nil && h.av != nil {
		h.postMirrorsAsync()
		return
	}
	start := h.C.Now()
	for lo, hi := 0, 0; lo < len(h.repWops); lo = hi {
		hi = h.nextServerGroup(lo)
		h.repLo, h.repHi = lo, hi
		if end := h.onTimeline(start, h.mirrorFn); end > h.mirrorEndV {
			h.mirrorEndV = end
		}
	}
	h.Rec.ReplicaWrites += int64(len(h.repWops))
}

// postMirrorGroup posts the current per-server group; it is the thunk
// OnTimeline runs on the detached mirror timeline (bound once in NewHandle).
func (h *Handle) postMirrorGroup() {
	h.C.PostWrites(h.repWops[h.repLo:h.repHi]...)
}

// postMirrorsAsync is postMirrors on a real asynchronous transport: there is
// no detached timeline to hide the mirrors on, but the transport can hold
// every per-server doorbell in flight at once, so all groups are issued
// before any is awaited and the replica servers genuinely absorb them in
// parallel. The superset invariant holds as on the simulator — every mirror
// completes here, before the caller issues the primary commit.
func (h *Handle) postMirrorsAsync() {
	h.repPends = h.repPends[:0]
	for lo, hi := 0, 0; lo < len(h.repWops); lo = hi {
		hi = h.nextServerGroup(lo)
		h.repPends = append(h.repPends, h.av.PostWritesAsync(h.repWops[lo:hi]...))
	}
	for _, p := range h.repPends {
		h.av.Await(p)
	}
	if end := h.C.Now(); end > h.mirrorEndV {
		h.mirrorEndV = end
	}
	h.Rec.ReplicaWrites += int64(len(h.repWops))
}

// noteMirrorLag samples how far the latest mirror doorbell's completion
// trails the primary commit the handle just finished — the bounded-lag
// metric of the replica experiment. Call after the commit doorbell.
func (h *Handle) noteMirrorLag() {
	if h.mirrorEndV == 0 {
		return
	}
	if lag := h.mirrorEndV - h.C.Now(); lag > h.Rec.ReplicaLagMaxNS {
		h.Rec.ReplicaLagMaxNS = lag
	}
	h.mirrorEndV = 0
}

// writeMirrored is h.C.Write plus replica mirroring, for the cross-server
// writes that cannot ride a release doorbell (split halves landing on
// another MS, new roots, root-race deallocations, migration copies). All
// call sites target fresh, never-published slots, so no other writer
// contends — but a re-replication CopyChunk scanning the slot's chunk might:
// its raw slot read could tear against this write and then overwrite the
// completed mirror with the torn image. Taking the slot's node lock — the
// same lock CopyChunk holds per slot — serializes the two, and only when
// the cluster replicates (the unreplicated path matches the seed verb for
// verb). The caller may already hold another node's lock; that pair cannot
// deadlock, because CopyChunk never holds more than one lock and nobody
// else ever locks an unpublished slot.
func (h *Handle) writeMirrored(a transport.Addr, data []byte) {
	if !h.replicated {
		h.C.Write(a, data)
		return
	}
	g := h.t.locks.Lock(h.C, h.slotBase(a))
	h.oneWop[0] = transport.WriteOp{Addr: a, Data: data}
	h.mirror(h.oneWop[:])
	h.C.Write(a, data)
	h.unlockWrite(g, nil)
}

// takeRedo consumes the redo flag: true means the last commit's chunk was
// lost to a failover mid-operation and the caller must retry the mutation
// through the promoted chunk before acknowledging it.
func (h *Handle) takeRedo() bool {
	r := h.redo
	h.redo = false
	return r
}

// slotBase returns the node-slot base address containing a — the lock key
// shared by writers of unpublished slots and CopyChunk (a free-bit write
// targets an interior offset but must serialize under its node's slot).
func (h *Handle) slotBase(a transport.Addr) transport.Addr {
	inner := a.Off() % transport.DefaultChunkSize
	slot := inner - inner%uint64(h.t.cfg.Format.NodeSize)
	return alloc.ChunkOf(a).ChunkBase().Add(slot)
}
