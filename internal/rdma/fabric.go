// Package rdma simulates the RDMA fabric of a disaggregated-memory cluster:
// memory servers exposing host memory and NIC on-chip device memory, compute
// servers with client threads, and the one-sided verbs (READ, WRITE, CAS,
// FAA, masked CAS) plus doorbell-batched posts and a two-sided RPC path for
// the wimpy memory thread.
//
// Every operation really executes against shared process memory — the
// internal/memstore store shermand embeds too, with 64-byte access atomicity
// matching cacheline-granular NIC DMA — so lock-free readers observe genuine
// torn data that the index's version/checksum machinery must catch.
// Performance is accounted in virtual time via internal/sim; see DESIGN.md
// §3 for the model.
//
// The verb surface and its value types (Addr, ReadOp, WriteOp, Metrics) are
// internal/transport's; *Client implements transport.Transport and
// transport.VirtualTimer, the capability interface carrying the virtual-time
// hooks.
package rdma

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sherman/internal/deploy"
	"sherman/internal/sim"
	"sherman/internal/transport"
)

// DefaultServerHeadroom is how many memory servers beyond the initial count
// a fabric can grow by default (AddServer). Lock managers and other
// per-server tables size themselves for MaxServers up front — capacity is
// cheap but not free, so the default is modest; declare more via
// NewFabricCap (cluster.Config.MaxMS) when planning a larger scale-out.
const DefaultServerHeadroom = 4

// Fabric wires a set of memory servers and compute servers together over a
// simulated RDMA network with the timing model in sim.Params.
//
// The memory-server set is elastic: AddServer attaches a new server while
// client threads run (scale-out); which servers are leaving (scale-in) is
// compute-side state, kept by deploy.State. The server list is published through an atomic
// snapshot so concurrent verbs never observe a half-grown fabric.
type Fabric struct {
	P   sim.Params
	CSs []*ComputeServer

	// Faults is the deployment's fault injector (deploy.State holds the
	// same one). Every verb of every client consults it; a dead compute
	// server's clients abort with transport.Crash at their next verb.
	Faults *deploy.Faults

	serverMu   sync.Mutex                // guards growth
	servers    atomic.Pointer[[]*Server] // published snapshot
	maxServers int
	onAdd      []func(*Server) // growth hooks (lock managers), under serverMu

	clients atomic.Int64
}

// ClientCount returns the number of client threads created on the fabric —
// the physical bound on how many commands can be in flight from distinct
// spinners at once.
func (f *Fabric) ClientCount() int { return int(f.clients.Load()) }

// ComputeServer is one compute node: many client threads, a local cache and
// lock tables (owned by higher layers), and an RDMA NIC whose outbound
// pipeline is shared by all of its threads.
type ComputeServer struct {
	// ID identifies the compute server; it is also the value written into
	// global locks by RDMA_CAS (§4.3), offset by one so that 0 can mean
	// "unlocked".
	ID uint16

	// Outbound models the NIC's outbound command-processing pipeline.
	Outbound sim.Resource
}

// NewFabric builds a fabric with numMS memory servers and numCS compute
// servers, with room to grow by DefaultServerHeadroom more memory servers.
// Params are validated once here.
func NewFabric(p sim.Params, numMS, numCS int) *Fabric {
	return NewFabricCap(p, numMS, numMS+DefaultServerHeadroom, numCS)
}

// NewFabricCap is NewFabric with an explicit memory-server capacity:
// AddServer may grow the fabric up to maxMS servers.
func NewFabricCap(p sim.Params, numMS, maxMS, numCS int) *Fabric {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if numMS <= 0 || numCS <= 0 {
		panic(fmt.Sprintf("rdma: need at least one MS and one CS (got %d, %d)", numMS, numCS))
	}
	if maxMS < numMS {
		maxMS = numMS
	}
	if maxMS > 1<<15 {
		panic(fmt.Sprintf("rdma: max server count %d exceeds the 15-bit id space", maxMS))
	}
	f := &Fabric{P: p, Faults: deploy.NewFaults(numCS), maxServers: maxMS}
	// First MS-death listener: gate the dead server's memory before any
	// later listener (replica promotion) or the triggering verb can run, so
	// no write lands on a server already declared dead.
	f.Faults.OnMSDeath(func(ms int) {
		servers := *f.servers.Load()
		if ms >= 0 && ms < len(servers) {
			servers[ms].SetDead(true)
		}
	})
	servers := make([]*Server, 0, maxMS)
	for i := 0; i < numMS; i++ {
		servers = append(servers, newServer(uint16(i), p))
	}
	f.servers.Store(&servers)
	for i := 0; i < numCS; i++ {
		f.CSs = append(f.CSs, &ComputeServer{ID: uint16(i)})
	}
	return f
}

// Servers returns the current memory-server snapshot. The slice is
// append-only and never mutated in place, so callers may index and iterate
// it freely; it just may miss servers added after the call.
func (f *Fabric) Servers() []*Server { return *f.servers.Load() }

// NumServers returns the current memory-server count.
func (f *Fabric) NumServers() int { return len(*f.servers.Load()) }

// MaxServers returns the fabric's memory-server capacity — the bound
// per-server tables (lock managers) are sized for.
func (f *Fabric) MaxServers() int { return f.maxServers }

// OnAddServer registers a hook run (under the growth lock) for every server
// added after registration — lock managers use it to wire their tables
// before clients can address the newcomer.
func (f *Fabric) OnAddServer(fn func(*Server)) {
	f.serverMu.Lock()
	defer f.serverMu.Unlock()
	f.onAdd = append(f.onAdd, fn)
}

// AddServer attaches one new memory server to the running fabric and
// returns it. Registered growth hooks run before the server is published,
// so by the time any client can address it the lock tables (and any other
// per-server state) already cover it.
func (f *Fabric) AddServer() (*Server, error) {
	f.serverMu.Lock()
	defer f.serverMu.Unlock()
	old := *f.servers.Load()
	if len(old) >= f.maxServers {
		return nil, fmt.Errorf("rdma: fabric at capacity (%d memory servers); size MaxMS higher at cluster creation", f.maxServers)
	}
	s := newServer(uint16(len(old)), f.P)
	for _, fn := range f.onAdd {
		fn(s)
	}
	grown := make([]*Server, len(old), f.maxServers)
	copy(grown, old)
	grown = append(grown, s)
	f.servers.Store(&grown)
	return s, nil
}

// Server returns the memory server addressed by a.
func (f *Fabric) Server(a transport.Addr) *Server {
	servers := *f.servers.Load()
	ms := a.MS()
	if int(ms) >= len(servers) {
		panic(fmt.Sprintf("rdma: address %v names unknown memory server", a))
	}
	return servers[ms]
}
