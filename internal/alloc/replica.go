package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sherman/internal/transport"
)

// MaxReplicationFactor bounds ClusterConfig.ReplicationFactor; MaxReplicas
// is the number of mirror copies a chunk can carry beside its primary.
// Fixed small bounds let the hot mirror path hand replica targets around in
// stack arrays instead of heap slices.
const (
	MaxReplicationFactor = 4
	MaxReplicas          = MaxReplicationFactor - 1
)

// replicaSet is one primary chunk's mirror copies. Published sets are
// immutable (structural changes swap in a fresh set under ReplicaMap.mu);
// only the pending flags — shared across generations by pointer — mutate in
// place, atomically.
type replicaSet struct {
	n     int
	bases [MaxReplicas]transport.Addr
	// pending[i] non-nil-and-true marks a replica whose bulk backfill
	// (re-replication CopyChunk) is still running: it receives mirrors like
	// any replica, but it holds only the recent mirrors, not the history the
	// unfinished copy is still delivering, so promotion prefers any complete
	// replica over it.
	pending [MaxReplicas]*atomic.Bool
}

// complete reports whether replica i's bulk copy (if any) has finished.
func (s *replicaSet) complete(i int) bool {
	return s.pending[i] == nil || !s.pending[i].Load()
}

// TargetSet is a caller-owned snapshot of one chunk's replica targets,
// filled by ReplicaMap.Targets without allocating.
type TargetSet struct {
	N     int
	Bases [MaxReplicas]transport.Addr
}

// Promotion records one chunk failed over to a replica after its primary's
// memory server died.
type Promotion struct {
	// Old is the dead primary chunk; NewBase the promoted replica chunk's
	// base (same-offset addressing, like a forwarding entry).
	Old     ChunkID
	NewBase transport.Addr
}

// ReplicaMap is the cluster-wide chunk→replicas placement table. Like the
// forwarding map it is compute-side shared state, not fabric memory. The
// steady-state mirror path reads it lock-free through an atomically
// published copy-on-write map; structural changes (chunk registration,
// failover, re-replication) serialize on a mutex and swap in a new map.
type ReplicaMap struct {
	mu sync.Mutex
	m  atomic.Pointer[map[ChunkID]*replicaSet]

	registered atomic.Int64
	promotions atomic.Int64
	dropped    atomic.Int64 // replica copies dropped with their dead server
	lost       atomic.Int64 // chunks whose primary died with no live replica
}

// NewReplicaMap creates an empty replica map.
func NewReplicaMap() *ReplicaMap {
	r := &ReplicaMap{}
	m := make(map[ChunkID]*replicaSet)
	r.m.Store(&m)
	return r
}

// Targets fills out with chunk ck's replica targets and reports whether ck
// is a registered (replicated) primary chunk. Allocation-free; safe for
// concurrent use with structural changes.
func (r *ReplicaMap) Targets(ck ChunkID, out *TargetSet) bool {
	s, ok := (*r.m.Load())[ck]
	if !ok {
		out.N = 0
		return false
	}
	out.N = s.n
	out.Bases = s.bases
	return true
}

// Registered reports whether ck is a replicated primary chunk.
func (r *ReplicaMap) Registered(ck ChunkID) bool {
	_, ok := (*r.m.Load())[ck]
	return ok
}

// swap publishes a structural change. Callers hold r.mu.
func (r *ReplicaMap) swap(mutate func(m map[ChunkID]*replicaSet)) {
	old := *r.m.Load()
	m := make(map[ChunkID]*replicaSet, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	mutate(m)
	r.m.Store(&m)
}

func newSet(bases ...transport.Addr) *replicaSet {
	if len(bases) > MaxReplicas {
		panic(fmt.Sprintf("alloc: %d replicas exceeds MaxReplicas=%d", len(bases), MaxReplicas))
	}
	s := &replicaSet{n: len(bases)}
	copy(s.bases[:], bases)
	return s
}

// Register publishes freshly placed replica chunks for primary chunk ck.
// Every base must lie on a distinct memory server, none on ck's own. Called
// once per chunk at allocation time, before any node is carved from it.
func (r *ReplicaMap) Register(ck ChunkID, bases ...transport.Addr) {
	for i, b := range bases {
		if b.MS() == ck.MS {
			panic(fmt.Sprintf("alloc: replica of chunk (%d,%d) placed on its own server", ck.MS, ck.Index))
		}
		for _, o := range bases[:i] {
			if o.MS() == b.MS() {
				panic(fmt.Sprintf("alloc: two replicas of chunk (%d,%d) on server %d", ck.MS, ck.Index, b.MS()))
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := (*r.m.Load())[ck]; ok {
		panic(fmt.Sprintf("alloc: chunk (%d,%d) already registered", ck.MS, ck.Index))
	}
	r.swap(func(m map[ChunkID]*replicaSet) {
		m[ck] = newSet(bases...)
	})
	r.registered.Add(1)
}

// AddPendingReplica attaches base's chunk as a new mirror target of ck whose
// bulk backfill has not run yet: every write committed from now on reaches
// it as a mirror (so the backfill misses nothing), but promotion treats it
// as a last resort until CompleteReplica. Returns false when ck is not a
// registered primary — a concurrent failover re-keyed it — or the set is
// full; the re-replicator then skips the chunk.
func (r *ReplicaMap) AddPendingReplica(ck ChunkID, base transport.Addr) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := (*r.m.Load())[ck]
	if !ok || old.n >= MaxReplicas {
		return false
	}
	if base.MS() == ck.MS {
		panic(fmt.Sprintf("alloc: replica of chunk (%d,%d) placed on its own server", ck.MS, ck.Index))
	}
	s := &replicaSet{n: old.n + 1}
	s.bases, s.pending = old.bases, old.pending
	s.bases[old.n] = base
	p := new(atomic.Bool)
	p.Store(true)
	s.pending[old.n] = p
	r.swap(func(m map[ChunkID]*replicaSet) {
		m[ck] = s
	})
	return true
}

// Drop unregisters primary chunk ck, discarding its replica set. Only for
// chunks no node was ever carved from — an allocator abandoning a chunk
// whose server died during the growth RPC (after the failover sweep ran, so
// nothing else will ever clean the entry). No-op when ck is absent.
func (r *ReplicaMap) Drop(ck ChunkID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := (*r.m.Load())[ck]; !ok {
		return
	}
	r.swap(func(m map[ChunkID]*replicaSet) {
		delete(m, ck)
	})
	r.registered.Add(-1)
}

// CompleteReplica marks base's copy of ck as fully backfilled, making it a
// first-class failover candidate. No-op when ck was re-keyed by a racing
// failover or base is no longer in its set.
func (r *ReplicaMap) CompleteReplica(ck ChunkID, base transport.Addr) {
	if s, ok := (*r.m.Load())[ck]; ok {
		for i := 0; i < s.n; i++ {
			if s.bases[i] == base && s.pending[i] != nil {
				s.pending[i].Store(false)
				return
			}
		}
	}
}

// FailoverServer removes dead server ms from the placement table: every
// chunk whose primary lived on ms is promoted to its first complete live
// replica, else its first live one (returned for forwarding installation),
// and every replica copy hosted on ms is dropped from its set. aliveMS
// reports whether a server is still live. Chunks whose primary died with no
// live replica are dropped and counted as lost.
//
// No clock ranks the candidates: every mirror lands before its primary
// commit (on the simulator it is applied as it is posted, over TCP it is
// awaited), so every complete live replica holds every acked write of its
// chunk, and any of them will do.
func (r *ReplicaMap) FailoverServer(ms uint16, aliveMS func(int) bool) []Promotion {
	r.mu.Lock()
	defer r.mu.Unlock()
	var promoted []Promotion
	r.swap(func(m map[ChunkID]*replicaSet) {
		for ck, s := range m {
			if ck.MS == ms {
				// Primary died. A replica still backfilling (pending) holds
				// only recent mirrors, so any complete replica beats it.
				best := -1
				for i := 0; i < s.n; i++ {
					if !aliveMS(int(s.bases[i].MS())) {
						continue
					}
					if best < 0 || (s.complete(i) && !s.complete(best)) {
						best = i
					}
				}
				delete(m, ck)
				if best < 0 {
					r.lost.Add(1)
					continue
				}
				next := &replicaSet{}
				for i := 0; i < s.n; i++ {
					if i == best || !aliveMS(int(s.bases[i].MS())) {
						continue
					}
					next.bases[next.n] = s.bases[i]
					next.pending[next.n] = s.pending[i]
					next.n++
				}
				m[ChunkOf(s.bases[best])] = next
				promoted = append(promoted, Promotion{Old: ck, NewBase: s.bases[best]})
				r.promotions.Add(1)
				continue
			}
			// Primary lives elsewhere: shed any copy hosted on ms.
			drop := 0
			for i := 0; i < s.n; i++ {
				if s.bases[i].MS() == ms {
					drop++
				}
			}
			if drop == 0 {
				continue
			}
			next := &replicaSet{}
			for i := 0; i < s.n; i++ {
				if s.bases[i].MS() == ms {
					continue
				}
				next.bases[next.n] = s.bases[i]
				next.pending[next.n] = s.pending[i]
				next.n++
			}
			m[ck] = next
			r.dropped.Add(int64(drop))
		}
	})
	return promoted
}

// UnderReplicated lists primary chunks carrying fewer than want-1 complete
// replica copies — the background re-replicator's work queue. A pending
// replica does not count (its backfill may have been abandoned by a crashed
// re-replicator), so the queue self-heals. Deterministic order (by server,
// then chunk index) so paced sweeps are reproducible.
func (r *ReplicaMap) UnderReplicated(want int) []ChunkID {
	var out []ChunkID
	for ck, s := range *r.m.Load() {
		n := 0
		for i := 0; i < s.n; i++ {
			if s.complete(i) {
				n++
			}
		}
		if n < want-1 {
			out = append(out, ck)
		}
	}
	sortChunks(out)
	return out
}

func sortChunks(cks []ChunkID) {
	for i := 1; i < len(cks); i++ {
		for j := i; j > 0 && chunkLess(cks[j], cks[j-1]); j-- {
			cks[j], cks[j-1] = cks[j-1], cks[j]
		}
	}
}

func chunkLess(a, b ChunkID) bool {
	if a.MS != b.MS {
		return a.MS < b.MS
	}
	return a.Index < b.Index
}

// Holders fills out with the servers currently hosting a copy of ck
// (primary first) and returns the count — the set a re-replication target
// picker must avoid.
func (r *ReplicaMap) Holders(ck ChunkID, out *[MaxReplicationFactor]uint16) int {
	out[0] = ck.MS
	n := 1
	if s, ok := (*r.m.Load())[ck]; ok {
		for i := 0; i < s.n; i++ {
			out[n] = s.bases[i].MS()
			n++
		}
	}
	return n
}

// Len returns the number of registered primary chunks.
func (r *ReplicaMap) Len() int { return len(*r.m.Load()) }

// Promotions returns the lifetime count of replica promotions (failovers).
func (r *ReplicaMap) Promotions() int64 { return r.promotions.Load() }

// DroppedReplicas returns replica copies dropped with their dead servers.
func (r *ReplicaMap) DroppedReplicas() int64 { return r.dropped.Load() }

// Lost returns chunks whose primary died with no live replica to promote.
func (r *ReplicaMap) Lost() int64 { return r.lost.Load() }
