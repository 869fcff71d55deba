// Package cluster assembles the simulated disaggregated-memory cluster:
// memory servers, compute servers and the virtual-time RDMA fabric between
// them. Everything compute-side that does not depend on the fabric — the
// superblock, forwarding, replicas, failover promotion, allocator wiring and
// placement, draining included — is the embedded deploy.State.
package cluster

import (
	"fmt"

	"sherman/internal/deploy"
	"sherman/internal/hocl"
	"sherman/internal/rdma"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// Cluster is a running simulated deployment.
type Cluster struct {
	*deploy.State

	F *rdma.Fabric
	P sim.Params
}

// Config sizes a cluster.
type Config struct {
	// NumMS and NumCS are the memory- and compute-server counts. The paper's
	// testbed emulates 8 of each (§5.1.1).
	NumMS int
	NumCS int
	// MaxMS caps online memory-server scale-out (AddMS); 0 means NumMS plus
	// a small default headroom. Lock tables are sized for it up front.
	MaxMS int
	// ReplicationFactor is the number of copies each data chunk keeps,
	// including the primary. 0 or 1 disables replication (the seed
	// behavior); at 2+ every chunk carries factor-1 mirror copies on
	// distinct other servers, writes are mirrored one-sided, and a memory
	// server becomes a survivable unit of failure.
	ReplicationFactor int
	// Params overrides the fabric timing model; zero value means defaults.
	Params sim.Params
}

// New builds the cluster and reserves the superblock chunk on MS 0 so that
// offset 0 is never handed to the allocator (Addr 0 is the nil pointer).
func New(cfg Config) *Cluster {
	p := cfg.Params
	if p.RTTNS == 0 {
		p = sim.DefaultParams()
	}
	if cfg.NumMS <= 0 || cfg.NumCS <= 0 {
		panic(fmt.Sprintf("cluster: invalid sizes %d MS / %d CS", cfg.NumMS, cfg.NumCS))
	}
	maxMS := cfg.MaxMS
	if maxMS == 0 {
		maxMS = cfg.NumMS + rdma.DefaultServerHeadroom
	}
	f := rdma.NewFabricCap(p, cfg.NumMS, maxMS, cfg.NumCS)
	st, err := deploy.New(f, cfg.ReplicationFactor)
	if err == nil {
		err = st.ReserveSuperblock()
	}
	if err != nil {
		panic("cluster: " + err.Error())
	}
	// The listener runs synchronously in the MS-death chain, after the
	// fabric has gated the dead server's memory and before the triggering
	// verb proceeds.
	f.Faults.OnMSDeath(func(ms int, _ int64) { st.Failover(ms, f.Faults.MSAlive) })
	return &Cluster{State: st, F: f, P: p}
}

// KillMS fails memory server ms: its memory goes dark (reads zero-fill,
// writes and atomics discard) and, under replication, every chunk it
// hosted fails over to its freshest replica before this call returns.
// Server 0 hosts the cluster superblock and cannot be killed.
func (c *Cluster) KillMS(ms int) error {
	if ms <= 0 || ms >= c.NumMS() {
		return fmt.Errorf("cluster: cannot kill memory server %d (valid: 1..%d; server 0 holds the superblock)", ms, c.NumMS()-1)
	}
	if !c.F.Faults.MSAlive(ms) {
		return fmt.Errorf("cluster: memory server %d is already dead", ms)
	}
	c.F.Faults.KillMS(ms, c.F.Faults.LatestVerbV())
	return nil
}

// MSAlive reports whether memory server ms is live.
func (c *Cluster) MSAlive(ms int) bool { return c.F.Faults.MSAlive(ms) }

// NumMS returns the current memory-server count.
func (c *Cluster) NumMS() int { return c.F.NumServers() }

// AddMS attaches one new (empty) memory server to the running cluster and
// returns its id. Safe while client threads run: lock managers wire the
// newcomer before it is published, and allocators start placing chunks on
// it at their next refill. Data moves only when a migration rebalances.
func (c *Cluster) AddMS() (int, error) {
	s, err := c.F.AddServer()
	if err != nil {
		return 0, err
	}
	return int(s.ID), nil
}

// NumCS returns the compute-server count.
func (c *Cluster) NumCS() int { return len(c.F.CSs) }

// NewClient creates a client thread bound to compute server cs.
func (c *Cluster) NewClient(cs int) *rdma.Client { return c.F.NewClient(cs) }

// NewTransport is NewClient through the pluggable verb surface (the
// core.Backend spelling).
func (c *Cluster) NewTransport(cs int) transport.Transport { return c.NewClient(cs) }

// NewLockManager builds the HOCL lock manager over the simulated fabric.
func (c *Cluster) NewLockManager(cfg hocl.Config) *hocl.Manager {
	return hocl.NewManager(c.F, cfg)
}

// Loads snapshots every memory server's NIC inbound load, with per-chunk
// breakdowns.
func (c *Cluster) Loads() []stats.MSLoad {
	servers := c.F.Servers()
	out := make([]stats.MSLoad, len(servers))
	for i, s := range servers {
		out[i] = stats.MSLoad{
			MS:       i,
			Ops:      s.InboundOps(),
			ChunkOps: s.ChunkOps(),
			Draining: c.Draining(i),
			Dead:     s.Dead(),
		}
	}
	return out
}

// Kill fails compute server cs: every client thread bound to it aborts with
// sim.Crash at its next fabric verb, its held locks become reclaimable after
// the lease expires, and its queued lock waiters are woken and aborted. nowV
// seeds the lease anchor; pass the caller's best bound on the victim's
// clocks (the injector keeps the max of it and every verb it has seen).
func (c *Cluster) Kill(cs int, nowV int64) {
	c.F.Faults.Kill(cs, nowV)
}

// CSAlive reports whether a client of the given incarnation on compute
// server cs may still issue verbs.
func (c *Cluster) CSAlive(cs int, epoch int64) bool { return c.F.Faults.Alive(cs, epoch) }

// Restart revives compute server cs under a new incarnation. Clients (and
// sessions) created before the crash stay dead; create fresh ones.
func (c *Cluster) Restart(cs int) { c.F.Faults.Restart(cs) }

// Faults exposes the fabric's deterministic fault injector for tests and
// the fault benchmark (verb-indexed and time-indexed kills, degradation,
// partitions).
func (c *Cluster) Faults() *sim.Faults { return c.F.Faults }

// ReadRoot forwards to deploy.ReadRoot: the superblock is the same on every
// fabric.
func ReadRoot(cl transport.Transport) (transport.Addr, uint8) { return deploy.ReadRoot(cl) }
