package sherman

import (
	"errors"
	"fmt"
	"sync"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/deploy"
	"sherman/internal/sim"
	"sherman/internal/transport"
	"sherman/internal/transport/tcp"
)

// Transport backends selectable via ClusterConfig.Transport.
const (
	// TransportSim runs the virtual-time RDMA simulator in-process: full
	// fault injection, replication, elasticity, and calibrated timing. The
	// default.
	TransportSim = "sim"
	// TransportTCP runs against real memory-server processes (cmd/shermand)
	// over TCP with real clocks. Replication, memory-server failover and
	// live migration are real here — a membership service heartbeats the
	// servers, KillMemoryServer SIGKILLs a launched process, and Rebalance
	// and DrainMemoryServer move chunks between running servers.
	// Compute-server crashes (KillComputeServer, ScheduleCrash,
	// RestartComputeServer) work as on the simulator. Admitting a memory
	// server (AddMemoryServer, MaxMemoryServers) is sim-only and returns
	// ErrSimOnly.
	TransportTCP = "tcp"
)

var (
	// ErrBadFabricParams rejects a FabricParams field that is out of range
	// for the selected transport; the error message names the field.
	ErrBadFabricParams = errors.New("sherman: bad fabric parameter")
	// ErrSimOnly rejects an operation a real network cannot serve:
	// admitting a memory server, or killing one this process does not own.
	ErrSimOnly = errors.New("sherman: operation requires the simulated transport")
)

// ClusterConfig sizes a disaggregated-memory cluster.
type ClusterConfig struct {
	// MemoryServers is the number of memory servers (MSs). The paper's
	// testbed emulates 8.
	MemoryServers int

	// ComputeServers is the number of compute servers (CSs). The paper's
	// testbed emulates 8; each runs many client threads.
	ComputeServers int

	// Transport selects the fabric backend: "" or TransportSim for the
	// in-process virtual-time simulator, TransportTCP for real shermand
	// memory-server processes over TCP.
	Transport string

	// Endpoints lists the shermand addresses ("host:port", index = memory
	// server id) when Transport is TransportTCP. Empty means NewCluster
	// launches MemoryServers shermand processes on loopback and owns them
	// (Close tears them down); non-empty means the servers are external,
	// and MemoryServers must be 0 or match len(Endpoints).
	Endpoints []string

	// MaxMemoryServers caps online scale-out (AddMemoryServer): lock tables
	// and other per-server state are sized for it at creation. 0 means
	// MemoryServers plus a small headroom. Sim-only.
	MaxMemoryServers int

	// ReplicationFactor is the number of copies of every data chunk,
	// including the primary. 0 or 1 disables replication (the default: no
	// redundancy, matching the paper's single-copy design). At factor k every
	// chunk's writes are mirrored to k-1 replica chunks on distinct other
	// memory servers, and a memory-server death promotes a complete replica
	// of each lost chunk with zero lost acknowledged writes (see DESIGN.md
	// §12; §13 for the TCP backend's membership-driven variant). Must not
	// exceed MemoryServers.
	ReplicationFactor int

	// Fabric overrides the simulated network timing model. The zero value
	// uses defaults calibrated to the paper's 100 Gbps ConnectX-5 testbed.
	// Setting any field on a TransportTCP cluster is an error — a real
	// network's timing is not configurable.
	Fabric FabricParams
}

// FabricParams exposes the tunable constants of the simulated RDMA fabric.
// All times are virtual nanoseconds. Zero fields take the calibrated
// defaults (see DESIGN.md §3); negative values are rejected with
// ErrBadFabricParams naming the field.
type FabricParams struct {
	// RTTNS is the one-sided verb round-trip time (paper: <= 2 us).
	RTTNS int64
	// HostAtomicNS is the in-NIC service time of an RDMA_ATOMIC targeting
	// host memory (two PCIe transactions, §3.2.2).
	HostAtomicNS int64
	// OnChipAtomicNS is the service time of an RDMA_ATOMIC targeting NIC
	// on-chip device memory (§4.3).
	OnChipAtomicNS int64
	// AtomicBuckets is the number of NIC-internal buckets serializing
	// conflicting atomics (§3.2.2; e.g. 4096).
	AtomicBuckets int
	// OnChipMemBytes is the NIC device-memory capacity (256 KB on
	// ConnectX-5).
	OnChipMemBytes int
}

// validate rejects out-of-range fields with a typed error naming the
// offender, instead of silently clamping or deferring to a generic
// simulator error.
func (p FabricParams) validate() error {
	switch {
	case p.RTTNS < 0:
		return fmt.Errorf("%w: RTTNS = %d, must be >= 0 (0 means default)", ErrBadFabricParams, p.RTTNS)
	case p.HostAtomicNS < 0:
		return fmt.Errorf("%w: HostAtomicNS = %d, must be >= 0 (0 means default)", ErrBadFabricParams, p.HostAtomicNS)
	case p.OnChipAtomicNS < 0:
		return fmt.Errorf("%w: OnChipAtomicNS = %d, must be >= 0 (0 means default)", ErrBadFabricParams, p.OnChipAtomicNS)
	case p.AtomicBuckets < 0:
		return fmt.Errorf("%w: AtomicBuckets = %d, must be >= 0 (0 means default)", ErrBadFabricParams, p.AtomicBuckets)
	case p.OnChipMemBytes < 0:
		return fmt.Errorf("%w: OnChipMemBytes = %d, must be >= 0 (0 means default)", ErrBadFabricParams, p.OnChipMemBytes)
	}
	return nil
}

// firstSet names the first non-zero field, for rejecting fabric overrides
// on a transport that has no simulated fabric.
func (p FabricParams) firstSet() string {
	switch {
	case p.RTTNS != 0:
		return "RTTNS"
	case p.HostAtomicNS != 0:
		return "HostAtomicNS"
	case p.OnChipAtomicNS != 0:
		return "OnChipAtomicNS"
	case p.AtomicBuckets != 0:
		return "AtomicBuckets"
	case p.OnChipMemBytes != 0:
		return "OnChipMemBytes"
	}
	return ""
}

func (p FabricParams) toSim() sim.Params {
	d := sim.DefaultParams()
	if p.RTTNS != 0 {
		d.RTTNS = p.RTTNS
	}
	if p.HostAtomicNS != 0 {
		d.HostAtomicNS = p.HostAtomicNS
	}
	if p.OnChipAtomicNS != 0 {
		d.OnChipAtomicNS = p.OnChipAtomicNS
	}
	if p.AtomicBuckets != 0 {
		d.AtomicBuckets = p.AtomicBuckets
	}
	if p.OnChipMemBytes != 0 {
		d.OnChipMemBytes = p.OnChipMemBytes
	}
	return d
}

// Cluster is a running deployment: memory servers, compute servers, and the
// fabric between them — simulated in-process or real shermand processes
// over TCP, selected by ClusterConfig.Transport. Create trees with
// CreateTree.
type Cluster struct {
	be core.Backend      // the active backend, whichever transport is selected
	st *deploy.State     // the backend's compute-side shared state
	cl *cluster.Cluster  // simulated deployment; nil on TransportTCP
	tc *tcp.Cluster      // TCP deployment; nil on TransportSim
	ts *tcp.LocalServers // shermand processes this cluster launched and owns

	treeMu sync.Mutex
	trees  []*Tree // registered by CreateTree, for DrainMemoryServer
}

// NewCluster builds and starts a cluster on the configured transport.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.ComputeServers <= 0 {
		return nil, errors.New("sherman: ComputeServers must be positive")
	}
	if err := cfg.Fabric.validate(); err != nil {
		return nil, err
	}
	switch cfg.Transport {
	case "", TransportSim:
		return newSimCluster(cfg)
	case TransportTCP:
		return newTCPCluster(cfg)
	default:
		return nil, fmt.Errorf("sherman: unknown Transport %q (want %q or %q)", cfg.Transport, TransportSim, TransportTCP)
	}
}

func newSimCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.MemoryServers <= 0 {
		return nil, errors.New("sherman: MemoryServers must be positive")
	}
	if cfg.MemoryServers > 1<<15 {
		return nil, fmt.Errorf("sherman: MemoryServers %d exceeds the 15-bit server id space", cfg.MemoryServers)
	}
	if len(cfg.Endpoints) != 0 {
		return nil, fmt.Errorf("sherman: Endpoints are TransportTCP-only (transport is %q)", TransportSim)
	}
	if cfg.MaxMemoryServers != 0 && (cfg.MaxMemoryServers < cfg.MemoryServers || cfg.MaxMemoryServers > 1<<15) {
		return nil, fmt.Errorf("sherman: MaxMemoryServers %d outside [%d, %d]", cfg.MaxMemoryServers, cfg.MemoryServers, 1<<15)
	}
	if err := deploy.CheckFactor(cfg.ReplicationFactor, cfg.MemoryServers); err != nil {
		return nil, fmt.Errorf("sherman: %w", err)
	}
	p := cfg.Fabric.toSim()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cl := cluster.New(cluster.Config{
		NumMS:             cfg.MemoryServers,
		NumCS:             cfg.ComputeServers,
		MaxMS:             cfg.MaxMemoryServers,
		ReplicationFactor: cfg.ReplicationFactor,
		Params:            p,
	})
	return &Cluster{be: cl, st: cl.State, cl: cl}, nil
}

func newTCPCluster(cfg ClusterConfig) (*Cluster, error) {
	if f := cfg.Fabric.firstSet(); f != "" {
		return nil, fmt.Errorf("%w: %s is set, but Transport %q has no simulated fabric to tune", ErrBadFabricParams, f, TransportTCP)
	}
	if cfg.MaxMemoryServers != 0 {
		return nil, fmt.Errorf("%w: MaxMemoryServers (online scale-out)", ErrSimOnly)
	}
	endpoints := cfg.Endpoints
	numMS := len(endpoints)
	if numMS == 0 {
		if cfg.MemoryServers <= 0 {
			return nil, errors.New("sherman: MemoryServers must be positive when no Endpoints are given")
		}
		numMS = cfg.MemoryServers
	} else if cfg.MemoryServers != 0 && cfg.MemoryServers != numMS {
		return nil, fmt.Errorf("sherman: MemoryServers %d does not match %d Endpoints", cfg.MemoryServers, numMS)
	}
	// Checked before anything is launched or dialed.
	if err := deploy.CheckFactor(cfg.ReplicationFactor, numMS); err != nil {
		return nil, fmt.Errorf("sherman: %w", err)
	}
	var ts *tcp.LocalServers
	if len(endpoints) == 0 {
		var err error
		ts, err = tcp.LaunchLocal(numMS)
		if err != nil {
			return nil, err
		}
		endpoints = ts.Endpoints
	}
	tc, err := tcp.NewCluster(endpoints, cfg.ComputeServers, tcp.Options{
		ReplicationFactor: cfg.ReplicationFactor,
	})
	if err != nil {
		if ts != nil {
			ts.Stop()
		}
		return nil, err
	}
	return &Cluster{be: tc, st: tc.State, tc: tc, ts: ts}, nil
}

// Close releases the cluster's external resources: on TransportTCP it shuts
// down the shermand processes the cluster launched (external Endpoints are
// left running) and drops the metadata connections. A simulated cluster
// holds no external resources and Close is a no-op.
func (c *Cluster) Close() {
	if c.tc != nil {
		if c.ts != nil {
			c.tc.Shutdown()
		} else {
			c.tc.Close()
		}
	}
	if c.ts != nil {
		c.ts.Stop()
	}
}

// MemoryServers returns the memory-server count.
func (c *Cluster) MemoryServers() int { return c.be.NumMS() }

// ComputeServers returns the compute-server count.
func (c *Cluster) ComputeServers() int { return c.be.NumCS() }

// KillComputeServer crashes compute server cs: every session bound to it
// fails — in-flight operations abort with no effect at their next fabric
// verb, and all further calls on those sessions report ErrSessionDead.
// Locks the dead sessions held become reclaimable by survivors once the
// liveness lease expires (on TransportTCP the real 200 ms lease), queued
// lock waiters of the dead server abort, and splits it left half-done are
// completed by Tree.Recover. The memory servers are untouched: in the
// one-sided design the client is the unit of failure.
func (c *Cluster) KillComputeServer(cs int) error {
	if err := c.checkCS(cs); err != nil {
		return err
	}
	c.st.Faults().Kill(cs, 0)
	return nil
}

// ScheduleCrash arms a deterministic crash for fault-injection tests:
// compute server cs fails at its n-th subsequent fabric operation (n >= 1
// counts verbs issued by any of the server's sessions from now). The crash
// then behaves exactly like KillComputeServer — in particular, an
// operation mid-flight at that verb is dropped with no effect, which is
// how tests place a crash inside a write's critical section.
func (c *Cluster) ScheduleCrash(cs int, n int64) error {
	if err := c.checkCS(cs); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("sherman: ScheduleCrash needs n >= 1, got %d", n)
	}
	c.st.Faults().KillAtVerb(cs, n)
	return nil
}

// RestartComputeServer revives a killed compute server under a fresh
// incarnation. Sessions opened before the crash stay dead — open new ones.
func (c *Cluster) RestartComputeServer(cs int) error {
	if err := c.checkCS(cs); err != nil {
		return err
	}
	c.st.Faults().Restart(cs)
	return nil
}

// ComputeServerAlive reports whether compute server cs is currently up.
func (c *Cluster) ComputeServerAlive(cs int) bool {
	return c.checkCS(cs) == nil && !c.st.Faults().Dead(cs)
}

// checkCS reports ErrBadComputeServer for a cs out of range.
func (c *Cluster) checkCS(cs int) error {
	if cs < 0 || cs >= c.be.NumCS() {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadComputeServer, cs, c.be.NumCS())
	}
	return nil
}

// checkLiveCS rejects a compute server that cannot run a maintenance
// sweep (what): one out of range, or dead.
func (c *Cluster) checkLiveCS(cs int, what string) error {
	if err := c.checkCS(cs); err != nil {
		return err
	}
	if c.st.Faults().Dead(cs) {
		return fmt.Errorf("%w: %s must run on a live compute server", ErrSessionDead, what)
	}
	return nil
}

// onComputeServer runs a maintenance sweep (recovery, migration,
// re-replication) on a fresh handle of compute server cs, converting a
// crash of cs mid-sweep into ErrSessionDead. The handle's clock is anchored
// at the cluster's latest verb time, so the sweep reports its own span
// rather than the cluster's age (real clocks need no anchoring; there the
// latest verb time is 0 and the anchor does nothing).
func (t *Tree) onComputeServer(cs int, what string, fn func(h *core.Handle) error) (err error) {
	if err := t.c.checkLiveCS(cs, what); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := transport.IsCrash(r); ok {
				err = ErrSessionDead
				return
			}
			panic(r)
		}
	}()
	h := t.tr.NewHandle(cs, int(sessionSeq.Add(1)))
	h.SetClock(t.c.st.Faults().LatestVerbV())
	return fn(h)
}

// KillMemoryServer fails memory server ms permanently: reads of its memory
// return zeros, and writes to it are lost. The death is the deployment's
// own, declared through its fault injector as on every fabric; on
// TransportTCP the shermand process this cluster launched is then SIGKILLed
// for real (external Endpoints are not this process's to kill and return
// ErrSimOnly). With replication enabled the cluster fails over
// synchronously — a complete replica of every chunk the server owned is
// promoted and all acknowledged writes remain readable; run
// Tree.ReReplicate afterwards to restore full redundancy. Without
// replication the server's data is simply gone (the call still succeeds; it
// models the failure the replication subsystem exists to survive). Memory
// server 0 holds the cluster superblock and cannot be killed, and a dead
// server cannot be killed twice.
func (c *Cluster) KillMemoryServer(ms int) error {
	if c.cl == nil && c.ts == nil {
		return fmt.Errorf("%w: KillMemoryServer on external Endpoints (this process does not own the servers)", ErrSimOnly)
	}
	if err := c.st.KillMS(ms); err != nil {
		return err
	}
	if c.ts != nil {
		return c.ts.Kill(ms)
	}
	return nil
}

// MemoryUsage returns the total host memory currently materialized across
// all memory servers, in bytes. On TransportTCP the memory lives in other
// processes and is not tracked; the call returns 0.
func (c *Cluster) MemoryUsage() uint64 {
	if c.cl == nil {
		return 0
	}
	var n uint64
	for _, s := range c.cl.F.Servers() {
		n += s.Capacity()
	}
	return n
}

// AllocStats reports allocator activity since the cluster started.
func (c *Cluster) AllocStats() AllocStats {
	return AllocStats{
		ChunkRPCs: c.st.AllocStats.Chunks.Load(),
		Nodes:     c.st.AllocStats.Nodes.Load(),
	}
}

// AllocStats summarizes the two-stage allocator (§4.2.4): ChunkRPCs is the
// number of 8 MB chunk allocations that reached a memory thread; Nodes is
// the number of node allocations served, almost all of them locally.
type AllocStats struct {
	ChunkRPCs int64
	Nodes     int64
}
