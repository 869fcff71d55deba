// Package replica is the repair half of chunk-granularity replication: the
// background re-replicator that restores redundancy after a memory-server
// death (or after allocation on a cluster too small to place every replica).
//
// The write-side mechanism lives below it — allocators place and register
// replica chunks (internal/alloc), handles mirror every committed write to
// them (internal/core's mirror engine), and the fabric's death trigger
// promotes a complete replica of each dead primary (deploy.State.Failover).
// What is left over after a failover is under-replication: every promoted
// chunk lost one copy, and every chunk that kept its primary may have lost a
// replica. The Engine sweeps those chunks, hottest first, and rebuilds each
// missing copy on the coldest eligible server with a register-then-backfill
// protocol that loses no concurrent write:
//
//  1. Grow a fresh chunk on the target server (one memory-thread RPC).
//  2. AddPendingReplica publishes it as a mirror target: from this instant
//     every committed write reaches it. Promotion still prefers complete
//     replicas — the newcomer holds only recent mirrors.
//  3. CopyChunk backfills the chunk slot by slot under the per-node locks
//     writers hold while mirroring, so a slot copy can never overwrite a
//     fresher mirror with stale bytes.
//  4. CompleteReplica makes the copy a first-class failover candidate.
//
// A source server dying mid-copy aborts the backfill benignly: dead memory
// reads as zeros and CopyChunk never writes zero slots, the promotion
// re-keys the chunk, and the abandoned pending replica neither attracts
// promotion nor satisfies UnderReplicated, so a later sweep repairs the
// re-keyed chunk afresh.
package replica

import (
	"sort"

	"sherman/internal/alloc"
	"sherman/internal/core"
	"sherman/internal/transport"
)

// Options tunes one engine.
type Options struct {
	// MaxChunks bounds chunks repaired by one ReReplicate call (0 = 16).
	MaxChunks int
}

func (o Options) maxChunks() int {
	if o.MaxChunks == 0 {
		return 16
	}
	return o.MaxChunks
}

// Stats reports one re-replication sweep.
type Stats struct {
	// ChunksRepaired counts chunks brought back to full replication;
	// SlotsCopied the non-empty node slots their backfills moved.
	ChunksRepaired, SlotsCopied int
	// SkippedNoTarget counts under-replicated chunks left as-is because no
	// eligible server could host another copy (every live, non-draining
	// server already holds one, or the replica set is full of abandoned
	// pending copies).
	SkippedNoTarget int
	// VirtualNS is the sweep's span on the engine thread's virtual clock.
	VirtualNS int64
}

// Engine drives re-replication for one tree from one compute server's client
// thread. Like a migration engine it is owned by one goroutine and runs
// under the cluster-wide migration lock, so concurrent sweeps and rebalances
// never fight over a chunk.
type Engine struct {
	t   *core.Tree
	h   *core.Handle
	opt Options
}

// New creates an engine over handle h (which determines the compute server
// and virtual clock the repair traffic runs on).
func New(h *core.Handle, opt Options) *Engine {
	return &Engine{t: h.Tree(), h: h, opt: opt}
}

// ReReplicate sweeps the under-replicated chunks — hottest first, so the
// chunks whose loss would hurt most regain redundancy soonest — and repairs
// up to MaxChunks of them. Safe while client threads run; the repaired
// chunks serve reads and writes throughout.
func (e *Engine) ReReplicate() (Stats, error) {
	be := e.t.Backend()
	rep := be.Replicas()
	var st Stats
	if rep == nil {
		return st, nil
	}
	start := e.h.C.Now()
	be.MigrationLock()
	defer be.MigrationUnlock()
	queue := rep.UnderReplicated(be.ReplicationFactor())
	e.sortHottest(queue)
	for _, ck := range queue {
		if st.ChunksRepaired >= e.opt.maxChunks() {
			break
		}
		if !be.MSAlive(int(ck.MS)) {
			continue // raced a death; failover owns this chunk now
		}
		ms := e.pickTarget(ck)
		if ms < 0 {
			st.SkippedNoTarget++
			continue
		}
		dst := transport.MakeAddr(uint16(ms), e.h.C.GrowChunk(uint16(ms)))
		if !rep.AddPendingReplica(ck, dst) {
			st.SkippedNoTarget++
			continue // re-keyed by a racing failover, or set full
		}
		copied := e.h.CopyChunk(ck, dst)
		if !be.MSAlive(int(ck.MS)) {
			continue // source died mid-copy; leave the backfill pending
		}
		rep.CompleteReplica(ck, dst)
		st.ChunksRepaired++
		st.SlotsCopied += copied
	}
	st.VirtualNS = e.h.C.Now() - start
	return st, nil
}

// sortHottest orders the repair queue by the chunks' inbound verb counts,
// hottest first, with the deterministic (server, index) order breaking ties
// so paced sweeps stay reproducible.
func (e *Engine) sortHottest(cks []alloc.ChunkID) {
	loads := e.t.Backend().Loads()
	heat := make(map[alloc.ChunkID]int64, len(cks))
	for _, ck := range cks {
		if int(ck.MS) < len(loads) {
			if ops := loads[ck.MS].ChunkOps; ck.Index < uint64(len(ops)) {
				heat[ck] = ops[ck.Index]
			}
		}
	}
	sort.SliceStable(cks, func(i, j int) bool { return heat[cks[i]] > heat[cks[j]] })
}

// pickTarget returns the coldest (by inbound verb count) live, non-draining
// server not already holding a copy of ck, or -1 when none qualifies.
func (e *Engine) pickTarget(ck alloc.ChunkID) int {
	be := e.t.Backend()
	var holders [alloc.MaxReplicationFactor]uint16
	nh := be.Replicas().Holders(ck, &holders)
	held := func(i int) bool {
		for j := 0; j < nh; j++ {
			if int(holders[j]) == i {
				return true
			}
		}
		return false
	}
	best, bestOps := -1, int64(0)
	for i, l := range be.Loads() {
		if l.Dead || l.Draining || held(i) {
			continue
		}
		if best < 0 || l.Ops < bestOps {
			best, bestOps = i, l.Ops
		}
	}
	return best
}
