package rdma

import "sherman/internal/transport"

// Client implements the pluggable verb surface — and, being a simulator, the
// virtual-time capability interface on top.
var (
	_ transport.Transport    = (*Client)(nil)
	_ transport.VirtualTimer = (*Client)(nil)
)

// CSID identifies the compute server this client thread runs on.
func (c *Client) CSID() uint16 { return c.CS.ID }

// AdvanceTo moves the thread's virtual clock forward to t if t is ahead.
func (c *Client) AdvanceTo(t int64) { c.Clk.AdvanceTo(t) }

// SetClock forces the thread's virtual clock to v (backwards allowed);
// benchmarks and recovery use it to align a fresh thread with cluster time.
func (c *Client) SetClock(v int64) { c.Clk.Set(v) }

// NumMS is the number of memory servers currently in the fabric.
func (c *Client) NumMS() int { return c.F.NumServers() }

// MSAlive reports whether memory server ms is reachable.
func (c *Client) MSAlive(ms int) bool { return c.F.Faults.MSAlive(ms) }

// Metrics exposes the per-thread verb counters.
func (c *Client) Metrics() *transport.Metrics { return &c.M }

// Timing exposes the simulation's cost constants.
func (c *Client) Timing() transport.Timing {
	p := &c.F.P
	return transport.Timing{
		RTTNS:             p.RTTNS,
		LocalStepNS:       p.LocalStepNS,
		LocalSpinNS:       p.LocalSpinNS,
		PipelineIssueNS:   p.PipelineIssueNS,
		WraparoundGuardNS: p.WraparoundGuardNS,
		LeaseNS:           p.LeaseNS,
	}
}

// GrowChunk asks memory server ms's allocation thread for one fresh chunk
// via the two-sided RPC path and returns its base host offset.
func (c *Client) GrowChunk(ms uint16) uint64 {
	servers := c.F.Servers()
	var base uint64
	c.Call(ms, func() { base = servers[ms].Grow() })
	return base
}

// The Fabric doubles as the raw (setup-time, untimed) allocation view the
// bulk allocator runs over.
var _ transport.Grower = (*Fabric)(nil)

// NumMS is the number of memory servers currently in the fabric (the
// placement-view spelling of NumServers).
func (f *Fabric) NumMS() int { return f.NumServers() }

// MSAlive reports whether memory server ms is reachable.
func (f *Fabric) MSAlive(ms int) bool { return f.Faults.MSAlive(ms) }

// GrowChunkRaw grows one chunk on ms with no virtual-time accounting, for
// setup-time bulk loading.
func (f *Fabric) GrowChunkRaw(ms uint16) uint64 { return f.Servers()[ms].Grow() }

// ReadRaw fills each op's buffer from its physical address with no
// virtual-time accounting (Validate, Stats).
func (f *Fabric) ReadRaw(ops ...transport.ReadOp) {
	for _, op := range ops {
		f.Servers()[op.Addr.MS()].ReadAt(op.Addr.Off(), op.Buf)
	}
}

// WriteRaw stores each op's data at its physical address, in order, with no
// virtual-time accounting (bulk load, the superblock).
func (f *Fabric) WriteRaw(ops ...transport.WriteOp) {
	for _, op := range ops {
		f.Servers()[op.Addr.MS()].WriteAt(op.Addr.Off(), op.Data)
	}
}

// SyncRaw returns at once: WriteRaw has stored every op by the time it
// returns.
func (f *Fabric) SyncRaw() {}
