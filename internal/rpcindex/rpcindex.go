// Package rpcindex implements the RPC-based index design the paper argues
// *against* (§3.1): write operations are shipped to the memory servers'
// CPUs, in the style of Cell [47] and FaRM-Tree [54]. On a traditional
// architecture that is a fine design; on disaggregated memory, the 1-2
// wimpy cores per memory server become the write bottleneck — which is
// exactly the claim of Table 2 ("cannot be deployed on disaggregated
// memory"). This package exists to make that claim measurable against
// Sherman on an identical fabric (see bench.ExtraRPCBaseline).
//
// The index partitions keys across memory servers by hash. Writes execute
// server-side under the memory thread's mutex, billed to the server's CPU
// resource (sim queueing makes the wimpy-core ceiling emerge). Reads follow
// the papers' one-sided path: a client-side cache locates the entry and a
// single RDMA_READ-equivalent round trip fetches it. Server-side state is
// a plain map — the design point under study is the compute ceiling, not
// the node layout, so the data path is deliberately minimal.
package rpcindex

import (
	"sync"

	"sherman/internal/rdma"
)

// Index is an RPC-write index over a simulated fabric.
type Index struct {
	f      *rdma.Fabric
	shards []shard // one per memory server
}

type shard struct {
	mu sync.Mutex
	m  map[uint64]uint64
}

// New creates an empty index spanning all memory servers of the fabric.
func New(f *rdma.Fabric) *Index {
	ix := &Index{f: f, shards: make([]shard, f.NumServers())}
	for i := range ix.shards {
		ix.shards[i].m = make(map[uint64]uint64)
	}
	return ix
}

// shardFor routes a key to its home memory server.
func (ix *Index) shardFor(key uint64) uint16 {
	x := key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	return uint16(x % uint64(len(ix.shards)))
}

// Handle is one client thread's connection to the index; one per
// goroutine, like core.Handle.
type Handle struct {
	ix *Index
	C  *rdma.Client
}

// NewHandle opens a client handle on compute server cs.
func (ix *Index) NewHandle(cs int) *Handle {
	return &Handle{ix: ix, C: ix.f.NewClient(cs)}
}

// Put ships the write to the key's home memory server via a two-sided RPC;
// the memory thread executes it (§3.1: "delegate index operations to CPUs
// of MSs via RPCs"). The RPC's service time queues on the wimpy core.
func (h *Handle) Put(key, value uint64) {
	ms := h.ix.shardFor(key)
	sh := &h.ix.shards[ms]
	h.C.Call(ms, func() {
		sh.mu.Lock()
		sh.m[key] = value
		sh.mu.Unlock()
	})
}

// Delete removes the key server-side, reporting presence.
func (h *Handle) Delete(key uint64) bool {
	ms := h.ix.shardFor(key)
	sh := &h.ix.shards[ms]
	var found bool
	h.C.Call(ms, func() {
		sh.mu.Lock()
		_, found = sh.m[key]
		delete(sh.m, key)
		sh.mu.Unlock()
	})
	return found
}

// Get reads one-sided, as Cell and FaRM-Tree do: the client-side cache
// resolves the entry's location and one RDMA_READ-sized round trip fetches
// it, without touching the memory thread.
func (h *Handle) Get(key uint64) (uint64, bool) {
	ms := h.ix.shardFor(key)
	sh := &h.ix.shards[ms]
	// Bill the verb: one read of an entry-sized payload at the home NIC.
	p := &h.C.F.P
	srv := h.C.F.Servers()[ms]
	t := h.C.CS.Outbound.Acquire(h.C.Now(), p.OutboundMinNS)
	t = srv.Inbound.Acquire(t, p.PayloadNS(16, p.InboundMinNS))
	h.C.Clk.AdvanceTo(t + p.RTTNS)
	h.C.M.Reads++
	h.C.M.RoundTrips++
	h.C.M.OpRoundTrips++

	sh.mu.Lock()
	v, ok := sh.m[key]
	sh.mu.Unlock()
	return v, ok
}

// Len returns the total number of stored pairs (for tests).
func (ix *Index) Len() int {
	n := 0
	for i := range ix.shards {
		ix.shards[i].mu.Lock()
		n += len(ix.shards[i].m)
		ix.shards[i].mu.Unlock()
	}
	return n
}
