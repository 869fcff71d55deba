package core

import (
	"sherman/internal/alloc"
	"sherman/internal/hocl"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// Backend is everything a Tree needs from the deployment hosting it, beyond
// the per-thread verb surface (transport.Transport) itself: thread and
// allocator construction, setup-time raw memory access, the compute-side
// shared state of migration and replication, and lock-manager wiring.
//
// Two implementations exist: *cluster.Cluster (the simulated deployment —
// the default) and the TCP cluster of internal/transport/tcp (real memory-
// server processes). Each supplies the fabric half itself (NewTransport,
// NewLockManager, NumCS/NumMS, MSAlive, CSAlive, Loads) and gets the rest —
// placement (MSUsable, SetDraining), forwarding, replicas, the migration
// lock — by embedding the one deploy.State. Core and the migration engine
// reach all of it through this interface and never inspect the backend's
// concrete type, so a decorator that embeds a Backend loses nothing.
type Backend interface {
	// NewTransport creates one client thread's verb surface, bound to
	// compute server cs.
	NewTransport(cs int) transport.Transport
	// NewThreadAllocator pairs a client thread with its stage-two chunk
	// allocator (§4.2.4), wired for replica placement when replicating.
	NewThreadAllocator(c transport.Transport, seed int) *alloc.ThreadAllocator
	// NewBulk builds a setup-time bulk allocator.
	NewBulk() *alloc.Bulk
	// NewLockManager builds the HOCL lock manager over this deployment.
	NewLockManager(cfg hocl.Config) *hocl.Manager
	// NumCS is the compute-server count.
	NumCS() int

	// SetRoot stores the superblock root pointer and level without timing;
	// bulk load uses it before client threads start.
	SetRoot(root transport.Addr, level uint8)
	// RawWrite stores every op without timing, mirrored to each op's chunk
	// replicas when replicating — setup-time writes (bulk load, compaction,
	// free bits) must be failover-covered like any client write. The batch
	// travels together: ops to one server apply in order, nothing orders
	// ops to different servers.
	RawWrite(ops ...transport.WriteOp)
	// RawRead fills every op's buffer without timing, chasing the
	// forwarding map for ops whose server is dead.
	RawRead(ops ...transport.ReadOp)
	// RawRoot loads the superblock root pointer and level hint without
	// timing.
	RawRoot() (transport.Addr, uint8)

	// Forwarding is the chunk forwarding map shared by migration and
	// failover promotion.
	Forwarding() *alloc.Forwarding
	// Replicas is the chunk→replicas placement table; nil when replication
	// is off.
	Replicas() *alloc.ReplicaMap
	// ReplicationFactor is the configured copies per chunk (0/1 = off).
	ReplicationFactor() int
	// OnChunkInvalidate registers a hook run for every chunk failed over to
	// a replica, so trees can purge cached pointers into dead memory.
	OnChunkInvalidate(fn func(alloc.ChunkID))
	// MSAlive reports whether memory server ms is reachable.
	MSAlive(ms int) bool
	// NumMS is the current memory-server count.
	NumMS() int
	// MSUsable reports whether ms should receive new placements (alive and
	// not draining).
	MSUsable(ms int) bool
	// SetDraining marks memory server ms as scaling in (or back), so
	// placement skips it; it refuses to drain the last usable server.
	SetDraining(ms int, v bool) error
	// Loads snapshots every memory server's inbound load with per-chunk
	// breakdowns — the signal repair and rebalancing place by.
	Loads() []stats.MSLoad
	// CSAlive reports whether a client of the given incarnation on compute
	// server cs may still issue verbs; forwarding entries of a dead
	// migrator drain by it.
	CSAlive(cs int, epoch int64) bool

	// MigrationLock and MigrationUnlock bound the cluster-wide critical
	// section shared by migration and re-replication engines: two sweeps
	// must never relocate or repair the same chunk concurrently.
	MigrationLock()
	MigrationUnlock()
}
