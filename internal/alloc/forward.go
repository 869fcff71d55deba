package alloc

import (
	"fmt"
	"sync"

	"sherman/internal/transport"
)

// ChunkID names one fixed-length chunk of a memory server's host memory —
// the granularity of both allocation (§4.2.4) and live migration.
type ChunkID struct {
	MS    uint16
	Index uint64
}

// ChunkOf returns the chunk holding the host-memory address a.
func ChunkOf(a transport.Addr) ChunkID {
	return ChunkID{MS: a.MS(), Index: a.Off() / transport.DefaultChunkSize}
}

// ChunkBase returns the address of the chunk's first byte.
func (c ChunkID) ChunkBase() transport.Addr {
	return transport.MakeAddr(c.MS, c.Index*transport.DefaultChunkSize)
}

// MaxForwardHops bounds a forwarding chase: a chunk may be relocated many
// times over a cluster's life (migration, then failover of the target, ...),
// and each relocation adds at most one hop to the chase a reader performs
// after observing a dead node. The bound is a defensive cap on that chain —
// distinct from MaxReplicationFactor, which bounds copies of one chunk, not
// generations of relocation.
const MaxForwardHops = 8

// forwardEntry is one installed chunk relocation.
type forwardEntry struct {
	newBase transport.Addr
	ownerCS int
	epoch   int64
}

// Forwarding is the cluster-wide chunk forwarding map of the live-migration
// protocol: while (and after) a chunk's nodes move from their home server
// to a fresh chunk elsewhere, an entry here redirects any address in the
// old chunk to the same offset in the new one. Traversals consult it only
// after observing a dead node, so a reader chases one hop per chunk
// generation. Entries are installed before the first node of a chunk is
// killed and stay installed for the life of the cluster — one small map
// entry per migrated chunk buys every late reference a resolution — except
// that entries owned by a crashed migrator are drained (DropDead) once a
// recovery sweep has repaired every parent pointer.
//
// The map is compute-side shared state (like the local lock tables), not
// fabric memory: it survives the crash of the installing compute server,
// whose identity each entry records so recovery can drain orphans.
type Forwarding struct {
	mu sync.RWMutex
	m  map[ChunkID]forwardEntry
}

// NewForwarding creates an empty forwarding map.
func NewForwarding() *Forwarding {
	return &Forwarding{m: make(map[ChunkID]forwardEntry)}
}

// Install publishes the relocation of chunk c to the chunk based at
// newBase, recorded as owned by compute server ownerCS at the given fault
// epoch. Must be called before the first node of c is killed. A chunk may
// only ever have one target — overwriting an entry would strand every
// reference to a first-generation original — so Install panics on a
// duplicate; migrate the stragglers of an already-forwarded chunk into its
// existing target via Reuse instead.
func (f *Forwarding) Install(c ChunkID, newBase transport.Addr, ownerCS int, epoch int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.m[c]; ok {
		panic(fmt.Sprintf("alloc: chunk (%d,%d) already forwarded to %v", c.MS, c.Index, old.newBase))
	}
	f.m[c] = forwardEntry{newBase: newBase, ownerCS: ownerCS, epoch: epoch}
}

// permanentOwner marks entries no compute server owns: failover promotions
// installed by the MS-death listener. They outlive every CS incarnation —
// the dead server's addresses stay resolvable for the life of the cluster —
// so DropDead never drains them.
const permanentOwner = -1

// InstallReplica publishes the failover of a dead server's chunk to its
// promoted replica, owned permanently. A chunk that already forwards
// somewhere (it was migrated off the dead server earlier) keeps its entry:
// the existing target holds the live data, the dead original only
// tombstones.
func (f *Forwarding) InstallReplica(c ChunkID, newBase transport.Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[c]; ok {
		return
	}
	f.m[c] = forwardEntry{newBase: newBase, ownerCS: permanentOwner}
}

// Reuse returns the installed target base of an already-forwarded chunk,
// re-stamping the entry's owner with the current migrator so a later crash
// of the original owner cannot drain an entry a live migration still
// relies on. ok=false means the chunk has no entry (first migration: grow
// a fresh target and Install). Source offsets are allocated monotonically
// and never recycled, so stragglers carved into the chunk after its first
// migration copy into untouched offsets of the same target chunk.
func (f *Forwarding) Reuse(c ChunkID, ownerCS int, epoch int64) (transport.Addr, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.m[c]
	if !ok {
		return transport.NilAddr, false
	}
	e.ownerCS, e.epoch = ownerCS, epoch
	f.m[c] = e
	return e.newBase, true
}

// Resolve maps an address in a migrated chunk to its relocated address
// (same offset within the new chunk). ok=false means the chunk has no
// forwarding entry — the address either never moved or its entry already
// drained (callers then re-traverse from the root).
func (f *Forwarding) Resolve(a transport.Addr) (transport.Addr, bool) {
	if a.OnChip() || a.IsNil() {
		return transport.NilAddr, false
	}
	f.mu.RLock()
	e, ok := f.m[ChunkOf(a)]
	f.mu.RUnlock()
	if !ok {
		return transport.NilAddr, false
	}
	return e.newBase.Add(a.Off() % transport.DefaultChunkSize), true
}

// DropDead drains entries whose owning compute server is no longer at the
// recorded incarnation (it crashed mid-migration). The recovery sweep calls
// it after repairing every parent pointer, so nothing references the old
// addresses anymore. alive reports whether (cs, epoch) still names a live
// incarnation.
func (f *Forwarding) DropDead(alive func(cs int, epoch int64) bool) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for c, e := range f.m {
		if e.ownerCS == permanentOwner {
			continue
		}
		if !alive(e.ownerCS, e.epoch) {
			delete(f.m, c)
			n++
		}
	}
	return n
}

// Len returns the number of installed entries.
func (f *Forwarding) Len() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.m)
}
