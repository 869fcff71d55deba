// Package alloc implements Sherman's two-stage memory allocation scheme
// (§4.2.4): client threads obtain fixed-length 8 MB chunks from memory
// servers' wimpy memory threads via RPC (stage one), then carve tree nodes
// out of their current chunk locally (stage two). Most allocations therefore
// cost zero network round trips, and the memory thread handles only one RPC
// per 8 MB.
package alloc

import (
	"fmt"
	"sync/atomic"

	"sherman/internal/transport"
)

// nodeAlign keeps every allocation 64-byte aligned so that node headers and
// trailing versions land at predictable line offsets.
const nodeAlign = 64

// Stats aggregates allocator activity across threads.
type Stats struct {
	// Chunks counts chunk-allocation RPCs issued to memory threads.
	Chunks atomic.Int64
	// Nodes counts local (stage-two) allocations served.
	Nodes atomic.Int64
}

// Placement is the view chunk placement decisions run over: the server
// count and which servers may receive new chunks. The deployment's
// compute-side state (deploy.State) supplies it, since draining is a
// compute-side decision (§4.2.4 puts allocation policy with the clients).
type Placement interface {
	NumMS() int
	MSUsable(ms int) bool
}

// ThreadAllocator is the per-client-thread stage-two allocator. It selects
// memory servers round-robin per chunk (§4.2.4; the paper notes round-robin
// may imbalance accesses and leaves that for future work). The server set is
// re-read at every refill, so chunks start landing on scaled-out servers as
// soon as they join, and never on draining ones.
type ThreadAllocator struct {
	c      transport.Transport
	view   Placement
	stats  *Stats
	nextMS int

	cur transport.Addr
	rem uint64

	rep *ReplicaMap
	rf  int
}

// SetReplication makes every chunk this allocator grows carry factor-1
// replica copies, placed on distinct other servers and registered in rep
// before the first node is carved from the chunk.
func (a *ThreadAllocator) SetReplication(rep *ReplicaMap, factor int) {
	a.rep, a.rf = rep, factor
}

// NewThreadAllocator creates an allocator for client thread c, placing
// chunks on the servers view reports usable. startMS staggers the
// round-robin origin so threads do not stampede one server; pass e.g. the
// thread index.
func NewThreadAllocator(c transport.Transport, view Placement, stats *Stats, startMS int) *ThreadAllocator {
	numMS := view.NumMS()
	return &ThreadAllocator{
		c:      c,
		view:   view,
		stats:  stats,
		nextMS: ((startMS % numMS) + numMS) % numMS,
	}
}

// Alloc returns the address of a fresh size-byte region of disaggregated
// memory. It falls back to a chunk RPC only when the current chunk is
// exhausted.
func (a *ThreadAllocator) Alloc(size int) transport.Addr {
	if size <= 0 || size > transport.DefaultChunkSize {
		panic(fmt.Sprintf("alloc: bad allocation size %d", size))
	}
	sz := (uint64(size) + nodeAlign - 1) &^ (nodeAlign - 1)
	if a.rem > 0 && !a.view.MSUsable(int(a.cur.MS())) {
		// The current chunk's server started draining or died: abandon
		// the remainder so no new node lands on a server being scaled in
		// (or on dead memory that discards every write).
		a.rem = 0
	}
	for a.rem < sz {
		// A refill can yield slightly less than a full chunk (the nil-address
		// carve-out on MS 0), so loop until a chunk fits.
		a.refill()
	}
	addr := a.cur
	a.cur = a.cur.Add(sz)
	a.rem -= sz
	a.stats.Nodes.Add(1)
	return addr
}

// refill obtains a new chunk from the next non-draining memory server in
// round-robin order via the memory thread RPC.
func (a *ThreadAllocator) refill() {
	ms := uint16(nextPlacement(a.view, &a.nextMS))
	base := a.c.GrowChunk(ms)
	if !a.c.MSAlive(int(ms)) {
		// The server died during (or just before) the growth RPC. A chunk
		// born on dead memory would discard every write, and the failover
		// sweep that promotes registered chunks has already run — so discard
		// it unregistered and grab a chunk elsewhere.
		a.rem = 0
		a.refill()
		return
	}
	a.cur, a.rem = chunkStart(ms, base)
	a.stats.Chunks.Add(1)
	if a.rep != nil && a.rf > 1 {
		ck := ChunkID{MS: ms, Index: base / transport.DefaultChunkSize}
		a.rep.Register(ck, placeReplicas(a.view, ms, a.rf-1, a.c.GrowChunk)...)
		if !a.c.MSAlive(int(ms)) {
			// Died between the liveness check above and registration: the
			// failover sweep may have missed this chunk. Nothing was carved
			// from it yet — drop the registration (a no-op if the sweep did
			// see it and re-keyed it) and start over.
			a.rep.Drop(ck)
			a.rem = 0
			a.refill()
		}
	}
}

// placeReplicas grows want replica chunks for a primary on server ms, each
// on a distinct other live, non-draining server, walking round-robin from
// ms+1 so replica load spreads. grow performs the chunk growth on the
// chosen server (RPC-timed or raw, per caller). Fewer than want servers
// qualifying yields an under-replicated chunk the background re-replicator
// repairs once capacity appears.
func placeReplicas(view Placement, ms uint16, want int, grow func(uint16) uint64) []transport.Addr {
	var bases []transport.Addr
	n := view.NumMS()
	cursor := (int(ms) + 1) % n
	for i := 0; i < n && len(bases) < want; i++ {
		rms := cursor
		cursor = (cursor + 1) % n
		if rms == int(ms) || !view.MSUsable(rms) {
			continue
		}
		base := grow(uint16(rms))
		if !view.MSUsable(rms) {
			continue // died during the growth: its base names no fresh memory
		}
		bases = append(bases, transport.MakeAddr(uint16(rms), base))
	}
	return bases
}

// RegisterPlaced grows and registers want replica chunks for the primary
// chunk ck, placed like any allocator refill (distinct live, non-draining
// servers, never ck's own), growing each through grow so the caller controls
// RPC timing. No-op when rep is nil, want is zero, or ck is already
// registered — the migration engine calls this for fresh forwarding-target
// chunks, which bypass the allocators, and a reused target is already
// covered.
func RegisterPlaced(rep *ReplicaMap, view Placement, ck ChunkID, want int, grow func(uint16) uint64) {
	if rep == nil || want <= 0 || rep.Registered(ck) {
		return
	}
	rep.Register(ck, placeReplicas(view, ck.MS, want, grow)...)
}

// nextPlacement advances the round-robin cursor to the next server willing
// to accept allocations — live and not draining — falling back to plain
// round-robin when no server qualifies (scale-in must never wedge the
// allocator).
func nextPlacement(view Placement, cursor *int) int {
	n := view.NumMS()
	*cursor %= n
	for i := 0; i < n; i++ {
		ms := *cursor
		*cursor = (*cursor + 1) % n
		if view.MSUsable(ms) {
			return ms
		}
	}
	ms := *cursor
	*cursor = (*cursor + 1) % n
	return ms
}

// chunkStart converts a freshly grown chunk into an allocation cursor. The
// very first bytes of memory server 0 would form address 0 — the nil
// pointer — so that region is skipped (deployments normally reserve it for
// the superblock anyway).
func chunkStart(ms uint16, base uint64) (transport.Addr, uint64) {
	if ms == 0 && base == 0 {
		return transport.MakeAddr(ms, nodeAlign), transport.DefaultChunkSize - nodeAlign
	}
	return transport.MakeAddr(ms, base), transport.DefaultChunkSize
}

// Bulk is a setup-time allocator used for bulk loading: it grows server
// memory directly with no virtual-time accounting and no client context.
// It hands out runs: nodes carved back to back on one server, from one open
// chunk per server, consecutive runs rotating over the usable servers.
// Bulkload makes each level-1 node's leaves one run, so a scan batch, which
// reads one level-1 node's children, reads one server. Rotating runs still
// spread every key range over all servers, as at the paper's billion-key
// scale where each server holds hundreds of chunks of every level, rather
// than putting a tree that fits one 8 MB chunk behind a single NIC. A tree
// small enough for one level-1 node lives on one server. It is not safe
// for concurrent use.
type Bulk struct {
	g     transport.Grower
	view  Placement
	next  int
	cur   []transport.Addr // per-MS open-chunk cursor
	rem   []uint64
	stats *Stats

	rep *ReplicaMap
	rf  int
}

// SetReplication mirrors ThreadAllocator.SetReplication for bulk loading:
// every chunk Bulk grows is registered with factor-1 replica copies so the
// bulkloaded tree is replicated from its first write.
func (b *Bulk) SetReplication(rep *ReplicaMap, factor int) {
	b.rep, b.rf = rep, factor
}

// NewBulk creates a bulk-load allocator over the cluster's raw growth path,
// placing chunks on the servers view reports usable.
func NewBulk(g transport.Grower, view Placement, stats *Stats) *Bulk {
	return &Bulk{
		g:     g,
		view:  view,
		cur:   make([]transport.Addr, g.NumMS()),
		rem:   make([]uint64, g.NumMS()),
		stats: stats,
	}
}

// Alloc carves one node: a run of one, so consecutive calls stripe across
// the usable servers.
func (b *Bulk) Alloc(size int) transport.Addr {
	var a [1]transport.Addr
	b.AllocRun(size, a[:])
	return a[0]
}

// AllocRun carves len(out) size-byte regions on one server, with the same
// alignment and chunk discipline as the runtime allocator, and stores their
// addresses in out. The run's server is the next usable one in round-robin
// order; a run longer than that server's open chunk continues in a fresh
// chunk there. If the server dies or starts draining mid-run, the rest of
// the run goes to the next usable server.
func (b *Bulk) AllocRun(size int, out []transport.Addr) {
	if size <= 0 || size > transport.DefaultChunkSize {
		panic(fmt.Sprintf("alloc: bad bulk allocation size %d", size))
	}
	sz := (uint64(size) + nodeAlign - 1) &^ (nodeAlign - 1)
	ms := -1
	for i := range out {
		if ms < 0 || !b.view.MSUsable(ms) {
			ms = b.place()
		}
		for b.rem[ms] < sz {
			if !b.refill(ms) {
				ms = b.place()
			}
		}
		out[i] = b.cur[ms]
		b.cur[ms] = b.cur[ms].Add(sz)
		b.rem[ms] -= sz
	}
	if b.stats != nil {
		b.stats.Nodes.Add(int64(len(out)))
	}
}

// place picks the server of the next allocation.
func (b *Bulk) place() int {
	ms := nextPlacement(b.view, &b.next)
	for ms >= len(b.cur) {
		// The fabric grew since this Bulk was created.
		b.cur = append(b.cur, transport.NilAddr)
		b.rem = append(b.rem, 0)
	}
	return ms
}

// refill opens a fresh chunk on ms, with ThreadAllocator.refill's two
// born-dead checks: a server that died during the growth (a dead one answers
// base 0, its first chunk, which already holds nodes) or before the chunk's
// replicas were registered (the failover sweep may have missed it) yields
// nothing — the registration is dropped, and false sends the caller to the
// next placement.
func (b *Bulk) refill(ms int) bool {
	base := b.g.GrowChunkRaw(uint16(ms))
	if !b.g.MSAlive(ms) {
		return false
	}
	if b.rep != nil && b.rf > 1 {
		ck := ChunkID{MS: uint16(ms), Index: base / transport.DefaultChunkSize}
		b.rep.Register(ck, placeReplicas(b.view, uint16(ms), b.rf-1, b.g.GrowChunkRaw)...)
		if !b.g.MSAlive(ms) {
			b.rep.Drop(ck)
			return false
		}
	}
	b.cur[ms], b.rem[ms] = chunkStart(uint16(ms), base)
	if b.stats != nil {
		b.stats.Chunks.Add(1)
	}
	return true
}
