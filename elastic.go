package sherman

import (
	"fmt"

	"sherman/internal/migrate"
	"sherman/internal/sim"
	"sherman/internal/stats"
)

// This file is the public face of the elasticity subsystem: online
// memory-server scale-out and scale-in with live chunk migration. The
// protocol lives in internal/migrate (orchestration) and internal/core
// (locked node moves, forwarding chases, parent repointing); DESIGN.md §9
// documents it.

// AddMemoryServer attaches one new, empty memory server to the running
// cluster and returns its id — usable while sessions run. Lock tables are
// wired before the server becomes addressable, and allocators start
// placing new chunks on it immediately; existing data moves only when a
// Rebalance (or DrainMemoryServer) migrates it. The cluster's scale-out
// capacity is fixed at creation (MaxMemoryServers); beyond it an error is
// returned.
func (c *Cluster) AddMemoryServer() (int, error) {
	if c.cl == nil {
		return 0, fmt.Errorf("%w: AddMemoryServer", ErrSimOnly)
	}
	return c.cl.AddMS()
}

// Rebalance migrates hot chunks from overloaded memory servers to
// underloaded ones until per-server NIC inbound load is within the
// engine's slack band, driving the moves from compute server via. Sessions
// keep operating throughout: readers that land on a moved node chase its
// forwarding entry (one extra local step plus one read), writers contend
// on the ordinary node locks. Returns ErrSessionDead when via crashes
// mid-migration — the tree stays serviceable, and Recover completes any
// half-repointed moves.
func (t *Tree) Rebalance(via int) (MigrationStats, error) {
	var st migrate.Stats
	err := t.runMigration(via, func(e *migrate.Engine) error {
		var err error
		st, err = e.Rebalance()
		return err
	})
	return migrationStats(st), err
}

// DrainMemoryServer migrates every tree's data off memory server ms and
// marks it as draining, so allocators place nothing new there — the
// scale-in half of elasticity, driven from compute server via. The server
// remains addressable (migrated originals stay as forwarding tombstones)
// but holds no live data when the call returns.
func (c *Cluster) DrainMemoryServer(ms, via int) (MigrationStats, error) {
	if c.cl == nil {
		return MigrationStats{}, fmt.Errorf("%w: DrainMemoryServer", ErrSimOnly)
	}
	if ms < 0 || ms >= c.cl.NumMS() {
		return MigrationStats{}, fmt.Errorf("sherman: memory server %d not in [0,%d)", ms, c.cl.NumMS())
	}
	var total MigrationStats
	c.treeMu.Lock()
	trees := append([]*Tree(nil), c.trees...)
	c.treeMu.Unlock()
	if len(trees) == 0 {
		// No trees: just mark it; there is nothing to move.
		c.cl.SetDraining(ms, true)
		return total, nil
	}
	for _, t := range trees {
		var st migrate.Stats
		err := t.runMigration(via, func(e *migrate.Engine) error {
			var err error
			st, err = e.DrainServer(uint16(ms))
			return err
		})
		total = addMigrationStats(total, migrationStats(st))
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// runMigration runs fn over a fresh engine on compute server via,
// converting a mid-migration crash of via into ErrSessionDead.
func (t *Tree) runMigration(via int, fn func(*migrate.Engine) error) (err error) {
	if t.c.cl == nil {
		// Live migration leans on the simulator's load accounting and
		// failover hooks; over a real network it is future work.
		return fmt.Errorf("%w: migration", ErrSimOnly)
	}
	if via < 0 || via >= t.c.ComputeServers() {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadComputeServer, via, t.c.ComputeServers())
	}
	if !t.c.ComputeServerAlive(via) {
		return fmt.Errorf("%w: migration must run on a live compute server", ErrSessionDead)
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := sim.IsCrash(r); ok {
				err = ErrSessionDead
				return
			}
			panic(r)
		}
	}()
	h := t.tr.NewHandle(via, int(sessionSeq.Add(1)))
	// Anchor the clock at the cluster's latest verb time so the reported
	// VirtualNS measures the migration, not the cluster's age (see
	// Tree.Recover).
	t.c.anchorClock(h)
	return fn(migrate.New(h, migrate.Options{}))
}

// MigrationStats reports one Rebalance or DrainMemoryServer run.
type MigrationStats struct {
	// ChunksMoved counts chunks whose nodes were relocated; NodesMoved the
	// nodes, BytesCopied their payload.
	ChunksMoved, NodesMoved int
	BytesCopied             int64
	// Repoints counts parent (or root) pointers swung to relocated
	// addresses. RepointMisses counts moves whose pointer a racing
	// structural change owned; readers keep resolving those through the
	// forwarding map until a recovery sweep repairs them.
	Repoints, RepointMisses int
	// CacheDropped counts compute-side index-cache entries invalidated
	// because they lived in (or steered into) a migrated chunk.
	CacheDropped int
	// VirtualNS is the migration's span on the driving thread's virtual
	// clock — the rebalance time a real deployment would observe.
	VirtualNS int64
}

func migrationStats(s migrate.Stats) MigrationStats {
	return MigrationStats{
		ChunksMoved:   s.ChunksMoved,
		NodesMoved:    s.NodesMoved,
		BytesCopied:   s.BytesCopied,
		Repoints:      s.Repoints,
		RepointMisses: s.RepointMisses,
		CacheDropped:  s.CacheDropped,
		VirtualNS:     s.VirtualNS,
	}
}

func addMigrationStats(a, b MigrationStats) MigrationStats {
	a.ChunksMoved += b.ChunksMoved
	a.NodesMoved += b.NodesMoved
	a.BytesCopied += b.BytesCopied
	a.Repoints += b.Repoints
	a.RepointMisses += b.RepointMisses
	a.CacheDropped += b.CacheDropped
	a.VirtualNS += b.VirtualNS
	return a
}

// MemoryServerLoad is one memory server's cumulative NIC inbound load —
// the signal Rebalance equalizes. Diff two snapshots for a windowed view.
type MemoryServerLoad struct {
	MS int
	// InboundOps counts client verbs (reads, writes, atomics, RPCs) the
	// server's NIC has serviced since the cluster started.
	InboundOps int64
	// Draining marks a server being scaled in.
	Draining bool
	// Dead marks a server killed by KillMemoryServer; dead servers are
	// excluded from LoadSkew and from migration and replica placement.
	Dead bool
}

// MemoryServerLoads snapshots every memory server's inbound load, as the
// backend's own counters report it: the simulator's NIC load accounting, or
// over TCP each server's striped per-chunk op counters fetched through the
// Stats opcode. A dead server is reported as Dead — with its final count on
// the simulator, with zero over TCP (the process that held it is gone).
func (c *Cluster) MemoryServerLoads() []MemoryServerLoad {
	loads := c.be.Loads()
	out := make([]MemoryServerLoad, len(loads))
	for i, l := range loads {
		out[i] = MemoryServerLoad{MS: l.MS, InboundOps: l.Ops, Draining: l.Draining, Dead: l.Dead}
	}
	return out
}

// LoadSkew summarizes a load snapshot as max/mean inbound ops: 1.0 is
// perfectly balanced, N means one of N servers carries everything.
func LoadSkew(loads []MemoryServerLoad) float64 {
	ls := make([]stats.MSLoad, len(loads))
	for i, l := range loads {
		ls[i] = stats.MSLoad{MS: l.MS, Ops: l.InboundOps, Draining: l.Draining, Dead: l.Dead}
	}
	return stats.LoadSkew(ls)
}

// ForwardingEntries returns the number of chunk forwarding entries
// currently installed — nonzero while (or after) migrations have moved
// data; entries of crashed migrations drain after Recover.
func (c *Cluster) ForwardingEntries() int {
	return c.st.Forwarding().Len()
}
