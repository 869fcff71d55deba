package sherman

import (
	"sherman/internal/core"
	"sherman/internal/replica"
)

// This file is the public face of the replication subsystem: chunk-granular
// redundancy that survives memory-server death with zero lost acknowledged
// writes. Enable it with ClusterConfig.ReplicationFactor; the mechanism
// lives in internal/alloc (placement, replica map), internal/core (the
// mirror engine riding on doorbell batches) and internal/replica (the
// background re-replicator); DESIGN.md §12 documents it.

// ReReplicate sweeps the tree's under-replicated chunks — those that lost a
// copy to a memory-server death, or never got their full complement on a
// small cluster — and rebuilds each missing copy on the coldest eligible
// server, driving the repair traffic from compute server via. Hottest
// chunks regain redundancy first. Safe while sessions run: each chunk is
// registered as a mirror target before its backfill starts, so no
// concurrent write is lost. One call repairs a bounded batch; call again
// until ChunksRepaired is zero to restore full redundancy. Returns
// ErrSessionDead when via crashes mid-sweep. With replication disabled it
// is a no-op.
func (t *Tree) ReReplicate(via int) (ReReplicationStats, error) {
	var st replica.Stats
	err := t.onComputeServer(via, "re-replication", func(h *core.Handle) (err error) {
		st, err = replica.New(h, replica.Options{}).ReReplicate()
		return err
	})
	return ReReplicationStats{
		ChunksRepaired:  st.ChunksRepaired,
		SlotsCopied:     st.SlotsCopied,
		SkippedNoTarget: st.SkippedNoTarget,
		VirtualNS:       st.VirtualNS,
	}, err
}

// ReReplicationStats reports one ReReplicate sweep.
type ReReplicationStats struct {
	// ChunksRepaired counts chunks brought back to full replication;
	// SlotsCopied the non-empty node slots their backfills copied.
	ChunksRepaired, SlotsCopied int
	// SkippedNoTarget counts under-replicated chunks left as-is because no
	// live, non-draining server could host another copy.
	SkippedNoTarget int
	// VirtualNS is the sweep's span on the driving thread's virtual clock —
	// the repair time a real deployment would observe.
	VirtualNS int64
}

// ReplicationStats snapshots the cluster's replication state.
func (c *Cluster) ReplicationStats() ReplicationStats {
	st := ReplicationStats{
		ReplicationFactor: c.st.ReplicationFactor(),
		Failovers:         c.st.Failovers(),
	}
	if rep := c.st.Replicas(); rep != nil {
		st.RegisteredChunks = rep.Len()
		st.Promotions = rep.Promotions()
		st.DroppedReplicas = rep.DroppedReplicas()
		st.LostChunks = rep.Lost()
		st.UnderReplicated = len(rep.UnderReplicated(st.ReplicationFactor))
	}
	return st
}

// ReplicationStats summarizes the replication subsystem since the cluster
// started.
type ReplicationStats struct {
	// ReplicationFactor echoes the configured copies per chunk (0/1 = off).
	ReplicationFactor int
	// RegisteredChunks is the number of primary chunks currently tracked.
	RegisteredChunks int
	// UnderReplicated is the number of chunks currently holding fewer
	// complete copies than the factor requires; ReReplicate drains it.
	UnderReplicated int
	// Failovers counts memory-server deaths the cluster failed over.
	Failovers int64
	// Promotions counts replica chunks promoted to primary by failovers;
	// DroppedReplicas counts replica copies lost when their host died.
	Promotions, DroppedReplicas int64
	// LostChunks counts chunks whose primary died with no replica to
	// promote — data loss, always zero when the factor is at least 2 and
	// re-replication keeps up with failures.
	LostChunks int64
}
