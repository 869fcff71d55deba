// Package migrate is the elasticity engine: chunk-granularity live
// migration of tree nodes between memory servers, driven by per-NIC inbound
// load. It turns a static placement into an operable cluster — scale out by
// adding a memory server and rebalancing onto it, scale in by draining one.
//
// The engine orchestrates; the mechanism lives below it. internal/core
// provides the node-level primitives (locked move with a kill-commit,
// parent repointing through the ordinary locked write path, cache
// invalidation), internal/alloc the chunk forwarding map that keeps
// concurrent traversals correct mid-move, and the tree's core.Backend
// everything deployment-wide: the load counters the picker consumes
// (Loads), the draining mark (SetDraining), forwarding, replica placement
// and the migration lock. Nothing here names a fabric, so the engine runs
// the same on the simulator and over real memory-server processes. See
// DESIGN.md §9 for the protocol and its crash-safety argument.
package migrate

import (
	"fmt"
	"sort"

	"sherman/internal/alloc"
	"sherman/internal/core"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

const (
	// maxChunks bounds the chunks moved by one Rebalance call.
	maxChunks = 64
	// slack is the max/mean load imbalance Rebalance tolerates before
	// moving anything.
	slack = 1.15
)

// Options tunes one engine.
type Options struct {
	// Baseline, when non-nil, is a prior load snapshot subtracted from the
	// current counters so the picker sees a recent window instead of the
	// cluster's whole history.
	Baseline []stats.MSLoad
	// Pace, when non-nil, is called between node moves (no lock held) with
	// the engine's current virtual time; benchmark harnesses use it to keep
	// the migrator inside the simulation gate's window.
	Pace func(nowNS int64)
}

// Stats reports one engine run.
type Stats struct {
	// ChunksMoved counts chunks whose nodes were relocated; NodesMoved the
	// nodes, BytesCopied their payload.
	ChunksMoved, NodesMoved int
	BytesCopied             int64
	// Repoints counts parent/root pointers swung to relocated addresses;
	// RepointMisses the moves whose pointer a racing structural change
	// owned (readers keep resolving through forwarding until a recovery
	// sweep repairs them).
	Repoints, RepointMisses int
	// CacheDropped counts index-cache entries invalidated across compute
	// servers.
	CacheDropped int
	// VirtualNS is the run's span on the migrating thread's virtual clock —
	// the rebalance time a real deployment would observe.
	VirtualNS int64
}

func (s *Stats) add(o Stats) {
	s.ChunksMoved += o.ChunksMoved
	s.NodesMoved += o.NodesMoved
	s.BytesCopied += o.BytesCopied
	s.Repoints += o.Repoints
	s.RepointMisses += o.RepointMisses
	s.CacheDropped += o.CacheDropped
}

// Engine drives migrations for one tree from one compute server's client
// thread. Like a Handle, an Engine is owned by one goroutine; one migration
// runs at a time per cluster (a cluster-wide critical section serializes
// engines so two migrations never relocate the same chunk concurrently).
type Engine struct {
	t   *core.Tree
	h   *core.Handle
	opt Options
}

// New creates an engine over handle h (which determines the compute server
// and virtual clock the migration runs on).
func New(h *core.Handle, opt Options) *Engine {
	return &Engine{t: h.Tree(), h: h, opt: opt}
}

// Rebalance evens out per-server inbound load: while the hottest server
// carries more than slack × the mean, its hottest chunks move to the
// coldest non-draining server. Returns after the plan is executed (or the
// chunk budget is exhausted); the tree serves throughout.
func (e *Engine) Rebalance() (Stats, error) {
	start := e.h.C.Now()
	loads := e.t.Backend().Loads()
	if e.opt.Baseline != nil {
		loads = stats.SubLoads(loads, e.opt.Baseline)
	}
	plan := planRebalance(loads)
	var st Stats
	err := e.runPlan(plan, &st)
	st.VirtualNS = e.h.C.Now() - start
	return st, err
}

// DrainServer moves every tree node off memory server ms (marking it
// draining first so allocators stop placing data there) and keeps sweeping
// until a collection pass comes back empty — concurrent writers may carve
// new nodes out of already-migrated chunks until the draining mark
// propagates. The server stays addressable forever (dead originals and the
// forwarding map live on), it just holds no tree data.
func (e *Engine) DrainServer(ms uint16) (Stats, error) {
	be := e.t.Backend()
	if err := be.SetDraining(int(ms), true); err != nil {
		return Stats{}, fmt.Errorf("migrate: %w", err)
	}
	start := e.h.C.Now()
	var st Stats
	const maxSweeps = 16
	for sweep := 0; sweep < maxSweeps; sweep++ {
		chunks := len(be.Loads()[ms].ChunkOps)
		var plan []move
		for ci := 0; ci < chunks; ci++ {
			ck := alloc.ChunkID{MS: ms, Index: uint64(ci)}
			if ms == 0 && ci == 0 {
				continue // the superblock chunk never migrates
			}
			plan = append(plan, move{chunk: ck})
		}
		before := st.NodesMoved
		if err := e.runPlan(e.assignTargets(plan), &st); err != nil {
			st.VirtualNS = e.h.C.Now() - start
			return st, err
		}
		if st.NodesMoved == before {
			st.VirtualNS = e.h.C.Now() - start
			return st, nil
		}
	}
	st.VirtualNS = e.h.C.Now() - start
	return st, fmt.Errorf("migrate: server %d still receiving nodes after %d sweeps", ms, maxSweeps)
}

// move is one planned chunk relocation.
type move struct {
	chunk alloc.ChunkID
	dst   uint16
}

// planRebalance picks (chunk, target) moves that bring the hottest servers
// toward the mean, using per-chunk inbound counts as the transferable load
// unit.
func planRebalance(loads []stats.MSLoad) []move {
	type srv struct {
		ms       int
		ops      int64
		chunks   []int64 // remaining per-chunk load
		draining bool
		dead     bool
	}
	srvs := make([]*srv, len(loads))
	var total int64
	targets := 0
	for i, l := range loads {
		srvs[i] = &srv{ms: l.MS, ops: l.Ops, chunks: append([]int64(nil), l.ChunkOps...), draining: l.Draining, dead: l.Dead}
		if l.Dead {
			// A corpse is neither a migration source (its memory reads as
			// zeros) nor a target; failover, not migration, owns its chunks.
			continue
		}
		total += l.Ops
		if !l.Draining {
			targets++
		}
	}
	if total == 0 || targets < 2 && !anyDraining(loads) {
		return nil
	}
	mean := float64(total) / float64(targets)
	var plan []move
	for len(plan) < maxChunks {
		// Hottest eligible source: any draining server with load, else the
		// server furthest above the slack band.
		var src *srv
		for _, s := range srvs {
			if s.draining && !s.dead && s.ops > 0 {
				if src == nil || s.ops > src.ops {
					src = s
				}
			}
		}
		if src == nil {
			for _, s := range srvs {
				if !s.draining && !s.dead && float64(s.ops) > slack*mean && (src == nil || s.ops > src.ops) {
					src = s
				}
			}
		}
		if src == nil {
			break
		}
		// Its hottest chunk (skip the superblock chunk on MS 0).
		ci := -1
		for j, ops := range src.chunks {
			if src.ms == 0 && j == 0 {
				continue
			}
			if ops > 0 && (ci < 0 || ops > src.chunks[ci]) {
				ci = j
			}
		}
		if ci < 0 {
			break
		}
		// Coldest live non-draining destination.
		var dst *srv
		for _, s := range srvs {
			if s.draining || s.dead || s.ms == src.ms {
				continue
			}
			if dst == nil || s.ops < dst.ops {
				dst = s
			}
		}
		if dst == nil {
			break
		}
		moved := src.chunks[ci]
		if !src.draining && float64(dst.ops+moved) > float64(src.ops) {
			break // the move would just swap hot and cold
		}
		plan = append(plan, move{chunk: alloc.ChunkID{MS: uint16(src.ms), Index: uint64(ci)}, dst: uint16(dst.ms)})
		src.chunks[ci] = 0
		src.ops -= moved
		dst.ops += moved
	}
	// Deterministic execution order regardless of map/pick order.
	sort.Slice(plan, func(i, j int) bool {
		a, b := plan[i].chunk, plan[j].chunk
		if a.MS != b.MS {
			return a.MS < b.MS
		}
		return a.Index < b.Index
	})
	return plan
}

func anyDraining(loads []stats.MSLoad) bool {
	for _, l := range loads {
		if l.Draining {
			return true
		}
	}
	return false
}

// assignTargets fills in destinations for a drain plan: spread round-robin
// over the non-draining servers, coldest first.
func (e *Engine) assignTargets(plan []move) []move {
	loads := e.t.Backend().Loads()
	var tgts []stats.MSLoad
	for _, l := range loads {
		if !l.Draining && !l.Dead {
			tgts = append(tgts, l)
		}
	}
	if len(tgts) == 0 {
		return nil
	}
	sort.Slice(tgts, func(i, j int) bool { return tgts[i].Ops < tgts[j].Ops })
	for i := range plan {
		plan[i].dst = uint16(tgts[i%len(tgts)].MS)
	}
	return plan
}

// runPlan executes the planned moves under the cluster's migration lock,
// collecting every planned chunk's nodes in one tree walk.
func (e *Engine) runPlan(plan []move, st *Stats) error {
	if len(plan) == 0 {
		return nil
	}
	be := e.t.Backend()
	be.MigrationLock()
	defer be.MigrationUnlock()
	want := make(map[alloc.ChunkID]bool, len(plan))
	for _, mv := range plan {
		want[mv.chunk] = true
	}
	items := e.h.CollectChunks(want)
	for _, mv := range plan {
		cs, err := e.migrateChunk(mv.chunk, mv.dst, items[mv.chunk])
		st.add(cs)
		if err != nil {
			return err
		}
	}
	return nil
}

// migrateChunk relocates the collected parent-referenced nodes of one
// chunk. See the protocol walkthrough in core/migrate.go and DESIGN.md §9.
func (e *Engine) migrateChunk(ck alloc.ChunkID, dstMS uint16, items []core.ChunkNode) (Stats, error) {
	var st Stats
	be := e.t.Backend()
	if len(items) == 0 {
		return st, nil
	}
	// A chunk's forwarding target is fixed forever: the first migration
	// reserves a whole chunk on the destination via one memory-thread RPC,
	// and — because node addresses keep their intra-chunk offsets and the
	// allocator never recycles an offset — stragglers found by later sweeps
	// copy into untouched offsets of that same target, whatever server it
	// sits on. Installing a second target would strand every reference to a
	// first-generation original.
	newBase, reused := be.Forwarding().Reuse(ck, int(e.h.C.CSID()), e.h.C.Epoch())
	if !reused {
		newBase = transport.MakeAddr(dstMS, e.h.C.GrowChunk(dstMS))
		// The fresh destination chunk bypassed the allocators, so it must
		// register its own replica set before the first node copies in —
		// otherwise every migrated-into chunk would silently lose failover
		// coverage.
		alloc.RegisterPlaced(be.Replicas(), be, alloc.ChunkOf(newBase), be.ReplicationFactor()-1, e.h.C.GrowChunk)
		be.Forwarding().Install(ck, newBase, int(e.h.C.CSID()), e.h.C.Epoch())
	}
	nodeSize := e.t.Config().Format.NodeSize
	for _, it := range items {
		dst := newBase.Add(it.Addr.Off() % transport.DefaultChunkSize)
		mv, err := e.h.MoveNode(it.Addr, dst)
		if err != nil {
			continue // already dead: freed or migrated under us
		}
		st.NodesMoved++
		st.BytesCopied += int64(nodeSize)
		if e.h.Repoint(mv, it.Addr, dst) {
			st.Repoints++
		} else {
			st.RepointMisses++
		}
		if e.opt.Pace != nil {
			e.opt.Pace(e.h.C.Now())
		}
	}
	st.ChunksMoved++
	st.CacheDropped += e.t.InvalidateChunk(ck)
	return st, nil
}
