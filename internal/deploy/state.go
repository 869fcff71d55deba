// Package deploy holds the compute-side state of one deployment — the part
// of a cluster that is the same whatever carries the verbs. Sherman's memory
// servers have near-zero compute power, so chunk placement (§4.2.4) and the
// set of servers it skips while they drain, the superblock's root pointer,
// the forwarding map, the replica table, failover promotion and the
// migration lock all live with the clients — and, since the client is the
// unit of failure, so does which incarnation of each compute server is
// alive (Faults, the one fault injector both fabrics gate every verb on).
// A memory server's death is compute-side as well: Faults.KillMS is the one
// death path on every fabric, and State.MSAlive reads its one dead flag.
// A fabric (the simulator's internal/cluster, the real network's
// internal/transport/tcp) supplies verbs, load counters and untimed raw
// access, plus what a death does to its own memory or connections, hooked
// on Faults.OnMSDeath; it embeds a State for everything else.
package deploy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sherman/internal/alloc"
	"sherman/internal/transport"
)

// Superblock layout, at offset 0 of memory server 0's first chunk (reserved
// by ReserveSuperblock, so Addr 0 stays the nil pointer). The root pointer
// is updated by CAS when the root splits; clients re-read it whenever
// cached-root validation (level / fence checks) fails.
const (
	superRootOff  = 0 // 8 B: Addr of the current root node
	superLevelOff = 8 // 8 B: height hint (root node level)
)

func superAddr(off uint64) transport.Addr { return transport.MakeAddr(0, off) }

// fabric is what a State needs from whatever carries the verbs: topology
// and chunk growth, plus untimed batched access at physical addresses (no
// forwarding, no mirroring — State adds both). WriteRaw may return once its
// ops are posted, their data copied; SyncRaw returns once every op posted
// before it is stored. Raw ops to one server apply in posted order, across
// calls; nothing orders ops to different servers.
type fabric interface {
	transport.Grower
	ReadRaw(ops ...transport.ReadOp)
	WriteRaw(ops ...transport.WriteOp)
	SyncRaw()
}

// State is the compute-side shared state of a running deployment.
type State struct {
	// AllocStats aggregates allocator activity across all client threads.
	AllocStats alloc.Stats

	// Fwd is the chunk forwarding map: live migration installs entries
	// while it repoints parents, failover promotion installs permanent ones.
	Fwd *alloc.Forwarding

	// Rep is the chunk→replicas placement table (nil when replication is
	// off). Allocators register every fresh chunk's mirror copies here;
	// writers mirror through it; failover rewrites it.
	Rep *alloc.ReplicaMap

	f      fabric
	rf     int     // configured copies per chunk incl. primary (0/1 = off)
	faults *Faults // the deployment's one fault injector

	// invalidators are per-tree cache invalidation hooks, run by failover
	// after it forwards a chunk to its replica so no compute server keeps
	// steering into the dead server's addresses.
	invMu        sync.Mutex
	invalidators []func(alloc.ChunkID)

	failovers atomic.Int64

	// migMu serializes migration and re-replication engines cluster-wide:
	// two sweeps must never relocate or repair the same chunk. Held in real
	// time only.
	migMu sync.Mutex

	// draining is the set of memory servers being scaled in: placement
	// skips them, the migration engine moves their contents off.
	drainMu  sync.Mutex
	draining map[int]bool
}

// CheckFactor validates a replication factor (copies per chunk including
// the primary; 0 or 1 disables replication) against the cluster size.
func CheckFactor(rf, numMS int) error {
	if rf < 0 || rf > alloc.MaxReplicationFactor {
		return fmt.Errorf("ReplicationFactor %d outside [0, %d]", rf, alloc.MaxReplicationFactor)
	}
	if rf > numMS {
		return fmt.Errorf("ReplicationFactor %d exceeds %d memory servers", rf, numMS)
	}
	return nil
}

// New builds the shared state over fabric f at replication factor rf, with
// faults as the deployment's fault injector: the one every verb of f
// consults. It registers failover as a memory-server death listener, after
// whatever the fabric registered before it and ahead of what it registers
// after. It touches no memory: call ReserveSuperblock once the fabric
// answers.
func New(f fabric, rf int, faults *Faults) (*State, error) {
	if err := CheckFactor(rf, f.NumMS()); err != nil {
		return nil, err
	}
	s := &State{Fwd: alloc.NewForwarding(), f: f, rf: rf, faults: faults, draining: map[int]bool{}}
	if rf > 1 {
		s.Rep = alloc.NewReplicaMap()
	}
	faults.OnMSDeath(s.failover)
	return s, nil
}

// ReserveSuperblock grows memory server 0's first chunk, so offset 0 exists
// before anything reads or CASes the root pointer and is never handed to an
// allocator. It fails when the server has been grown before.
func (s *State) ReserveSuperblock() error {
	if base := s.f.GrowChunkRaw(0); base != 0 {
		return fmt.Errorf("memory server 0 is not fresh (superblock chunk at %#x)", base)
	}
	return nil
}

// Faults is the deployment's fault injector: compute-server kills,
// scheduled crashes and restarts, and memory-server deaths and triggers, on
// either fabric.
func (s *State) Faults() *Faults { return s.faults }

// CSAlive reports whether a client of the given incarnation on compute
// server cs may still issue verbs.
func (s *State) CSAlive(cs int, epoch int64) bool { return s.faults.Alive(cs, epoch) }

// MSAlive reports whether memory server ms is live: the fault injector's
// dead flag, the one every fabric's verbs and every layer above read.
func (s *State) MSAlive(ms int) bool { return s.faults.MSAlive(ms) }

// KillMS fails memory server ms for good through the fault injector, with
// failover included before it returns. It refuses a server out of range,
// server 0 (it holds the superblock) and a server already dead.
func (s *State) KillMS(ms int) error {
	if ms <= 0 || ms >= s.f.NumMS() {
		return fmt.Errorf("deploy: cannot kill memory server %d (valid: 1..%d; server 0 holds the superblock)", ms, s.f.NumMS()-1)
	}
	if !s.MSAlive(ms) {
		return fmt.Errorf("deploy: memory server %d is already dead", ms)
	}
	s.faults.KillMS(ms)
	return nil
}

// failover promotes every chunk memory server ms hosted to a complete
// replica on a live server: the replica table is re-keyed, a
// permanent forwarding entry is installed and every registered invalidator
// runs. It is the injector's memory-server death listener, so it runs after
// the dead flag is published and the fabric's gate has closed: a reader
// that finds a chunk re-keyed also finds its old server dead and chases (or
// redoes), and one that sees the death before the forwarding entry exists
// re-traverses until it does. It issues no verbs.
func (s *State) failover(ms int) {
	if s.Rep == nil {
		return
	}
	promoted := s.Rep.FailoverServer(uint16(ms), s.MSAlive)
	s.invMu.Lock()
	invs := s.invalidators
	s.invMu.Unlock()
	for _, p := range promoted {
		s.Fwd.InstallReplica(p.Old, p.NewBase)
		for _, inv := range invs {
			inv(p.Old)
		}
	}
	s.failovers.Add(int64(len(promoted)))
}

// OnChunkInvalidate registers a hook failover calls for every chunk it
// promotes. Trees register their index-cache invalidation here so cached
// pointers into a dead server stop steering.
func (s *State) OnChunkInvalidate(fn func(alloc.ChunkID)) {
	s.invMu.Lock()
	s.invalidators = append(s.invalidators, fn)
	s.invMu.Unlock()
}

// Failovers returns the number of chunks promoted to a replica after a
// memory-server death.
func (s *State) Failovers() int64 { return s.failovers.Load() }

// Forwarding is the chunk forwarding map shared by migration and failover.
func (s *State) Forwarding() *alloc.Forwarding { return s.Fwd }

// Replicas is the chunk→replicas placement table (nil when replication is
// off).
func (s *State) Replicas() *alloc.ReplicaMap { return s.Rep }

// ReplicationFactor returns the configured copies per chunk (0/1 = off).
func (s *State) ReplicationFactor() int { return s.rf }

// MigrationLock enters the cluster-wide migration critical section.
func (s *State) MigrationLock() { s.migMu.Lock() }

// MigrationUnlock leaves the migration critical section.
func (s *State) MigrationUnlock() { s.migMu.Unlock() }

// NumMS is the fabric's memory-server count.
func (s *State) NumMS() int { return s.f.NumMS() }

// MSUsable reports whether memory server ms may receive new placements: it
// is alive and not draining.
func (s *State) MSUsable(ms int) bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.usableLocked(ms)
}

func (s *State) usableLocked(ms int) bool { return s.MSAlive(ms) && !s.draining[ms] }

// Draining reports whether memory server ms is being scaled in.
func (s *State) Draining(ms int) bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining[ms]
}

// SetDraining marks memory server ms as scaling in (or back). It refuses to
// drain the last server placement could still use: a drain needs somewhere
// to move the data.
func (s *State) SetDraining(ms int, v bool) error {
	if ms < 0 || ms >= s.f.NumMS() {
		return fmt.Errorf("deploy: no memory server %d", ms)
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if v && !s.draining[ms] {
		others := 0
		for i := 0; i < s.f.NumMS(); i++ {
			if i != ms && s.usableLocked(i) {
				others++
			}
		}
		if others == 0 {
			return errors.New("deploy: cannot drain the last memory server")
		}
	}
	s.draining[ms] = v
	return nil
}

// NewThreadAllocator pairs a client thread with its stage-two allocator,
// wired for replica placement when the cluster replicates.
func (s *State) NewThreadAllocator(c transport.Transport, seed int) *alloc.ThreadAllocator {
	a := alloc.NewThreadAllocator(c, s, &s.AllocStats, seed)
	if s.Rep != nil {
		a.SetReplication(s.Rep, s.rf)
	}
	return a
}

// NewBulk builds a setup-time bulk allocator over the fabric's raw growth
// path, wired for replica placement when the cluster replicates.
func (s *State) NewBulk() *alloc.Bulk {
	b := alloc.NewBulk(s.f, s, &s.AllocStats)
	if s.Rep != nil {
		b.SetReplication(s.Rep, s.rf)
	}
	return b
}

// RawWrite posts every op without timing, each mirrored to its chunk's
// replicas at the same intra-chunk offset when the cluster replicates —
// setup-time writes (bulk load, compaction, free bits) must be
// failover-covered like any client write. The fabric gets primaries and
// copies as one batch. The ops are stored and acknowledged by the time the
// next SetRoot returns.
func (s *State) RawWrite(ops ...transport.WriteOp) {
	if s.Rep != nil {
		all := slices.Clip(ops) // copies on the first append: ops is the caller's
		var ts alloc.TargetSet
		for _, op := range ops {
			if s.Rep.Targets(alloc.ChunkOf(op.Addr), &ts) {
				inner := op.Addr.Off() % transport.DefaultChunkSize
				for i := 0; i < ts.N; i++ {
					all = append(all, transport.WriteOp{Addr: ts.Bases[i].Add(inner), Data: op.Data})
				}
			}
		}
		ops = all
	}
	s.f.WriteRaw(ops...)
}

// RawRead fills every op's buffer without timing, chasing the forwarding
// map while an op's server is dead (at most alloc.MaxForwardHops
// generations) — so Validate and Stats keep working after a memory-server
// death, reading the promoted replicas instead. The fabric gets the chased
// ops as one batch.
func (s *State) RawRead(ops ...transport.ReadOp) {
	var chased []transport.ReadOp // copied on the first redirect: ops is the caller's
	for i, op := range ops {
		a := op.Addr
		for hop := 0; hop < alloc.MaxForwardHops && !s.MSAlive(int(a.MS())); hop++ {
			fwd, ok := s.Fwd.Resolve(a)
			if !ok {
				break
			}
			a = fwd
		}
		if a != op.Addr {
			if chased == nil {
				chased = slices.Clone(ops)
			}
			chased[i].Addr = a
		}
	}
	if chased == nil {
		chased = ops
	}
	s.f.ReadRaw(chased...)
}

// SetRoot stores the root pointer and level without timing; bulk load uses
// it before client threads start. It is the raw writes' one barrier: every
// RawWrite posted before it is stored and acknowledged before the root is
// posted, so a published root reaches only stored nodes, and the root is
// stored when it returns.
func (s *State) SetRoot(root transport.Addr, level uint8) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[superRootOff:], uint64(root))
	binary.LittleEndian.PutUint64(buf[superLevelOff:], uint64(level))
	s.f.SyncRaw()
	s.f.WriteRaw(transport.WriteOp{Addr: superAddr(0), Data: buf[:]})
	s.f.SyncRaw()
}

// RawRoot is the untimed ReadRoot, for Validate and Stats.
func (s *State) RawRoot() (transport.Addr, uint8) {
	var buf [16]byte
	s.RawRead(transport.ReadOp{Addr: superAddr(0), Buf: buf[:]})
	return decodeRoot(buf[:])
}

func decodeRoot(buf []byte) (transport.Addr, uint8) {
	return transport.Addr(binary.LittleEndian.Uint64(buf[superRootOff:])),
		uint8(binary.LittleEndian.Uint64(buf[superLevelOff:]))
}

// ReadRoot fetches the current root pointer and level with one READ on the
// caller's clock.
func ReadRoot(c transport.Transport) (transport.Addr, uint8) {
	var buf [16]byte
	c.Read(superAddr(0), buf[:])
	return decodeRoot(buf[:])
}

// CASRoot atomically swaps the root pointer from old to new; the level hint
// is then updated with a plain WRITE (readers tolerate a stale hint — they
// validate the fetched node's level field).
func CASRoot(c transport.Transport, old, new transport.Addr, newLevel uint8) bool {
	_, ok := c.CAS(superAddr(superRootOff), uint64(old), uint64(new))
	if ok {
		var lv [8]byte
		binary.LittleEndian.PutUint64(lv[:], uint64(newLevel))
		c.Write(superAddr(superLevelOff), lv[:])
	}
	return ok
}
