package tcp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sherman/internal/deploy"
	"sherman/internal/hocl"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// Options configures a TCP cluster beyond its endpoint list.
type Options struct {
	// ReplicationFactor is the number of copies each data chunk keeps,
	// including the primary (0/1 = off). At 2+ allocators place factor-1
	// mirror chunks on distinct other servers, client writes are mirrored
	// as coalesced WriteBatch frames, and a memory-server death promotes
	// each of its chunks to the freshest replica before the detecting verb
	// returns.
	ReplicationFactor int
	// HeartbeatInterval is the membership service's ping cadence; 0 means
	// the 50ms default, negative disables heartbeats (deaths are then
	// detected only by I/O errors on client verbs).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the per-ping deadline after which an unresponsive
	// server is declared dead; 0 means the 200ms default (one lease).
	HeartbeatTimeout time.Duration
}

// Cluster is the client-side view of a set of shermand processes: the
// core.Backend of the TCP transport. It supplies what only a real network
// can — sockets, heartbeat membership, the cluster clock, Stats-opcode load
// counters, raw access — and embeds deploy.State for the compute-side rest
// (superblock, forwarding, replicas, failover promotion, allocator wiring,
// placement and draining), the same code the simulator's
// internal/cluster.Cluster embeds.
//
// Fault tolerance is real here: a membership service heartbeats every
// server on a wall-clock interval, I/O errors on any client verb feed the
// same death path, and under replication each death synchronously promotes
// the dead server's chunks to their freshest replicas (DESIGN.md §13).
// Live migration (rebalance, drain) runs over it unchanged; only admitting
// a new memory server stays sim-only, since the endpoint list is fixed.
type Cluster struct {
	*deploy.State

	endpoints []string
	numCS     int
	onChip    int

	// clockOff shifts this process's monotonic clock onto the cluster
	// timeline anchored at memory server 0's Ping epoch (see Transport.Now).
	clockOff atomic.Int64

	// dead[ms] flips once when ms becomes unreachable; every Transport of
	// this cluster shares the view, so one thread's I/O error makes the
	// death visible to all (the fabric-manager gossip of §2 collapsed to a
	// process-local flag). deadOnce serializes the failover promotion that
	// must complete before the death is published.
	dead     []atomic.Bool
	deadOnce []sync.Once

	// muxes holds the one multiplexed connection per memory server, dialed
	// at bring-up (so the first measured op never pays a TCP handshake) and
	// shared by every client thread. Failover closes a server's mux, which
	// forces round trips blocked on a stalled (not closed) server to error
	// out.
	muxes []*muxConn

	// run counts the client threads that are runnable and may still post;
	// the one that takes it to zero writes every mux's posted frames.
	run runners

	hb *membership

	// raw is the metadata client behind ReadRaw/WriteRaw/GrowChunkRaw —
	// unlike per-thread Transports it is shared, hence the mutex. rawPend
	// and rawBatch are WriteRaw's scratch, reused under the mutex so that a
	// bulk load's waves allocate nothing.
	rawMu    sync.Mutex
	raw      *Transport
	rawPend  []transport.Pending
	rawBatch []transport.WriteOp
}

// NewCluster dials the given shermand endpoints and prepares the cluster:
// every server is pinged (verifying protocol agreement, on-chip capacity,
// and anchoring the cluster clock to server 0's epoch), memory server 0's
// first chunk is reserved for the superblock, and the membership service
// starts heartbeating — exactly the simulated cluster's setup plus the
// pieces a real network needs.
func NewCluster(endpoints []string, numCS int, opt Options) (*Cluster, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("tcp: need at least one memory server endpoint")
	}
	if numCS <= 0 {
		return nil, fmt.Errorf("tcp: need at least one compute server")
	}
	c := &Cluster{
		endpoints: endpoints,
		numCS:     numCS,
		dead:      make([]atomic.Bool, len(endpoints)),
		deadOnce:  make([]sync.Once, len(endpoints)),
		muxes:     make([]*muxConn, len(endpoints)),
	}
	st, err := deploy.New(c, opt.ReplicationFactor)
	if err != nil {
		return nil, fmt.Errorf("tcp: %w", err)
	}
	c.State = st
	c.raw = c.newTransport(0)
	if err := c.bringUp(); err != nil {
		c.Close() // every dialed mux
		return nil, err
	}
	if opt.HeartbeatInterval >= 0 {
		c.hb = startMembership(c, opt.HeartbeatInterval, opt.HeartbeatTimeout)
	}
	return c, nil
}

// bringUp dials and pings every server and reserves the superblock chunk.
// On error the caller closes whatever was dialed.
func (c *Cluster) bringUp() error {
	// Pre-dial every server's multiplexed connection now, so the first
	// measured verb against each server pays no TCP handshake — bring-up
	// absorbs the dial latency, not the benchmark's first op.
	for ms, ep := range c.endpoints {
		mx, err := dialMux(ms, ep, defaultWindow)
		if err != nil {
			return fmt.Errorf("tcp: memory server %d (%s) unreachable: %w", ms, ep, err)
		}
		mx.run = &c.run
		c.muxes[ms] = mx
	}
	c.run.muxes = c.muxes
	for ms, ep := range c.endpoints {
		var version, onChip uint32
		var serverNow uint64
		var perr error
		ok := c.muxes[ms].roundTrip(opPing, nil, func(resp []byte) {
			p := payloadReader{b: resp}
			version, onChip, serverNow = p.u32(), p.u32(), p.u64()
			perr = p.err
		})
		if !ok {
			return fmt.Errorf("tcp: ping to %s failed", ep)
		}
		if perr != nil {
			return fmt.Errorf("tcp: bad ping response from %s: %v", ep, perr)
		}
		if version != protocolVersion {
			return fmt.Errorf("tcp: memory server %s speaks protocol v%d, want v%d", ep, version, protocolVersion)
		}
		if ms == 0 {
			// Anchor the cluster clock: server 0's monotonic epoch becomes
			// the shared lease-time origin of every client process.
			c.clockOff.Store(int64(serverNow) - nowNS())
		}
		if c.onChip == 0 || int(onChip) < c.onChip {
			c.onChip = int(onChip)
		}
	}
	if err := c.ReserveSuperblock(); err != nil {
		return fmt.Errorf("tcp: %w", err)
	}
	return nil
}

// Close stops the membership service and tears down the multiplexed
// connections. The server processes are owned by the launcher.
func (c *Cluster) Close() {
	if c.hb != nil {
		c.hb.stop()
	}
	for _, mx := range c.muxes {
		if mx != nil {
			mx.fail()
		}
	}
}

// Shutdown asks every live memory server to exit (the orderly counterpart
// of killing the processes).
func (c *Cluster) Shutdown() {
	if c.hb != nil {
		c.hb.stop()
	}
	for ms := range c.endpoints {
		if !c.isDead(ms) {
			c.muxes[ms].roundTrip(opShutdown, nil, nil)
		}
	}
	c.Close()
}

func (c *Cluster) isDead(ms int) bool { return c.dead[ms].Load() }

// markDead publishes the death of memory server ms. Under replication the
// failover promotion runs first, inside the sync.Once — a concurrent caller
// blocks until it finishes — so by the time any verb observes dead[ms] the
// forwarding map already redirects every promoted chunk: the same
// no-dark-window guarantee the simulator gets from its synchronous
// OnMSDeath listener. The promotion itself issues no network verbs (the
// replica copies are already on the live servers; only compute-side maps
// change), so running it inside the detecting verb cannot deadlock.
func (c *Cluster) markDead(ms int) {
	if ms < 0 || ms >= len(c.endpoints) {
		return
	}
	c.deadOnce[ms].Do(func() {
		c.Failover(ms, func(i int) bool { return i != ms && !c.dead[i].Load() })
		c.dead[ms].Store(true)
		// Fail the mux: unblocks every goroutine stuck mid-round-trip on the
		// dead server (a SIGSTOPped process holds its sockets open without
		// answering) with dead-memory semantics.
		c.muxes[ms].fail()
	})
}

// MarkDead declares memory server ms dead, running failover promotion as if
// a verb had observed the death. The launcher's kill path calls it right
// after SIGKILL so tests don't wait out a heartbeat interval.
func (c *Cluster) MarkDead(ms int) { c.markDead(ms) }

// mux returns the multiplexed connection to ms, or alive=false when the
// server is dead (the caller applies dead-memory semantics).
func (c *Cluster) mux(ms uint16) (*muxConn, bool) {
	if c.isDead(int(ms)) {
		return nil, false
	}
	return c.muxes[ms], true
}

func (c *Cluster) newTransport(cs int) *Transport {
	return &Transport{cl: c, cs: uint16(cs)}
}

// --- core.Backend ----------------------------------------------------------

// NewTransport creates a client thread's transport bound to compute server
// cs. On TCP a "compute server" is a thread-group identity, not a process
// boundary — CSID still partitions the local lock tables.
func (c *Cluster) NewTransport(cs int) transport.Transport { return c.newTransport(cs) }

// NewLockManager builds the remote lock manager: no fabric, no virtual-time
// arbitration — the physical lock word on the servers is the whole truth.
func (c *Cluster) NewLockManager(cfg hocl.Config) *hocl.Manager {
	return hocl.NewRemoteManager(cfg, len(c.endpoints), c.numCS, c.onChip, c.GrowChunkRaw)
}

// NumCS returns the compute-server (thread-group) count.
func (c *Cluster) NumCS() int { return c.numCS }

// MSAlive reports whether memory server ms is reachable.
func (c *Cluster) MSAlive(ms int) bool { return !c.isDead(ms) }

// CSAlive is always true: the compute servers are this process's thread
// groups, and it is running.
func (c *Cluster) CSAlive(int, int64) bool { return true }

// Loads polls every memory server's Stats opcode and returns per-server
// inbound-op counts with per-chunk breakdowns — the real-network analogue
// of the simulator's NIC load accounting, feeding the same stats.MSLoad
// aggregation (LoadSkew, SubLoads) the rebalancer uses. Dead servers report
// Dead with zero counts; Draining comes from the compute-side state.
func (c *Cluster) Loads() []stats.MSLoad {
	out := make([]stats.MSLoad, len(c.endpoints))
	for ms := range c.endpoints {
		out[ms].MS, out[ms].Draining = ms, c.Draining(ms)
		mx, alive := c.mux(uint16(ms))
		if !alive {
			out[ms].Dead = true
			continue
		}
		ok := mx.roundTrip(opStats, nil, func(resp []byte) {
			p := payloadReader{b: resp}
			total := int64(p.u64())
			n := int(p.u32())
			chunk := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				chunk = append(chunk, int64(p.u64()))
			}
			if p.err == nil {
				out[ms].Ops = total
				out[ms].ChunkOps = chunk
			}
		})
		if !ok {
			c.markDead(ms)
			out[ms].Dead = true
		}
	}
	return out
}

// WireStats returns, per memory server, this process's end of the data
// connection: request frames sent and the write and read syscalls made —
// frames per write is the coalescing the mux achieved. Local counters; no
// round trip, and a dead server keeps its last counts.
func (c *Cluster) WireStats() []WireStats {
	out := make([]WireStats, len(c.muxes))
	for ms, mx := range c.muxes {
		out[ms] = WireStats{Frames: mx.frames.Load(), Writes: mx.writes.Load(), Reads: mx.reads.Load()}
	}
	return out
}

// --- what deploy.State runs over: transport.Grower + raw access ------------

// NumMS returns the memory-server count.
func (c *Cluster) NumMS() int { return len(c.endpoints) }

// GrowChunkRaw grows one chunk on ms with no timing accounting.
func (c *Cluster) GrowChunkRaw(ms uint16) uint64 {
	c.rawMu.Lock()
	defer c.rawMu.Unlock()
	return c.raw.GrowChunk(ms)
}

// ReadRaw fills every op's buffer through the shared metadata client: one
// ReadBatch frame per server, all in flight together.
func (c *Cluster) ReadRaw(ops ...transport.ReadOp) {
	c.rawMu.Lock()
	defer c.rawMu.Unlock()
	c.raw.ReadMulti(ops)
}

// rawWave bounds the WriteBatch frames WriteRaw keeps in flight: the raw
// client must not block on a window only its own awaits can free.
const rawWave = defaultWindow / 2

// WriteRaw stores every op through the shared metadata client as one posted
// wave. Each server's ops are packed, in order, into WriteBatch frames of at
// most burstBytes header included, so neither end's burst buffer ever grows
// (an op bigger than that rides alone); every frame is posted before any is
// awaited. Nothing orders ops to different servers.
func (c *Cluster) WriteRaw(ops ...transport.WriteOp) {
	c.rawMu.Lock()
	defer c.rawMu.Unlock()
	const empty = frameHeader + 4 // header + op count
	size := empty
	await := func() {
		for _, p := range c.rawPend {
			c.raw.Await(p)
		}
		c.rawPend = c.rawPend[:0]
	}
	post := func() {
		if len(c.rawPend) == rawWave {
			await()
		}
		c.rawPend = append(c.rawPend, c.raw.PostWritesAsync(c.rawBatch...))
		clear(c.rawBatch) // the frame holds a copy; drop the caller's buffers
		c.rawBatch, size = c.rawBatch[:0], empty
	}
	for ms := range c.endpoints {
		for _, op := range ops {
			if int(op.Addr.MS()) != ms {
				continue
			}
			n := 12 + len(op.Data) // addr u64, len u32, data
			if len(c.rawBatch) > 0 && size+n > burstBytes {
				post()
			}
			c.rawBatch = append(c.rawBatch, op)
			size += n
		}
		if len(c.rawBatch) > 0 {
			post()
		}
	}
	await()
}
