package rdma

import (
	"testing"

	"sherman/internal/sim"
	"sherman/internal/transport"
)

func spinFabric() *Fabric {
	return NewFabric(sim.DefaultParams(), 2, 2)
}

func TestCASBacklogDelaysCompletion(t *testing.T) {
	f := spinFabric()
	f.Servers()[0].Grow()
	a := transport.MakeAddr(0, 0x100)

	// Without backlog.
	c1 := f.NewClient(0)
	_, ok := c1.CASBacklog(a, 0, 1, 0)
	if !ok {
		t.Fatal("CAS failed")
	}
	plain := c1.Now()

	// Same command behind 50 us of queued atomics.
	c2 := f.NewClient(1)
	_, ok = c2.CASBacklog(a, 1, 2, 50_000)
	if !ok {
		t.Fatal("backlogged CAS failed")
	}
	if got := c2.Now(); got < plain+50_000-1000 {
		t.Errorf("backlogged CAS completed at %d, want >= ~%d", got, plain+50_000)
	}
}

func TestCAS16Backlog(t *testing.T) {
	f := spinFabric()
	a := transport.MakeOnChipAddr(0, 4)
	c := f.NewClient(0)
	prev, ok := c.CAS16Backlog(a, 0, 7, 10_000)
	if !ok || prev != 0 {
		t.Fatalf("CAS16Backlog = (%d,%v)", prev, ok)
	}
	if c.Now() < 10_000 {
		t.Errorf("clock %d did not include the backlog", c.Now())
	}
	// The 16-bit field must hold the swapped value.
	var buf [8]byte
	c.Read(transport.MakeOnChipAddr(0, 0), buf[:])
	if got := uint16(buf[4]) | uint16(buf[5])<<8; got != 7 {
		t.Errorf("on-chip field = %d, want 7", got)
	}
}

func TestAtomicSvcNS(t *testing.T) {
	f := spinFabric()
	c := f.NewClient(0)
	host := c.AtomicSvcNS(transport.MakeAddr(0, 8))
	chip := c.AtomicSvcNS(transport.MakeOnChipAddr(0, 8))
	if host <= chip {
		t.Errorf("host atomic service %d should exceed on-chip %d (PCIe cost)", host, chip)
	}
	p := f.P
	if host != p.HostAtomicNS+p.HostAtomicUnitNS || chip != p.OnChipAtomicNS+p.OnChipAtomicUnitNS {
		t.Errorf("service sums wrong: host %d, chip %d", host, chip)
	}
}

func TestChargeSpinCountsAndClock(t *testing.T) {
	f := spinFabric()
	f.Servers()[0].Grow()
	a := transport.MakeAddr(0, 0x40)
	c := f.NewClient(0)

	const from, to, cadence = 0, 100_000, 2_500
	n := c.ChargeSpin(a, from, to, cadence)
	want := 0
	for x := int64(from); x+cadence < to; x += cadence {
		want++
	}
	if n != want {
		t.Errorf("retries = %d, want %d", n, want)
	}
	if c.Now() != to {
		t.Errorf("clock = %d, want %d", c.Now(), to)
	}
	if c.M.CASFailures != int64(n) || c.M.RoundTrips != int64(n) {
		t.Errorf("metrics: failures=%d roundtrips=%d, want %d", c.M.CASFailures, c.M.RoundTrips, n)
	}
}

func TestChargeSpinEmptyWindow(t *testing.T) {
	f := spinFabric()
	f.Servers()[0].Grow()
	c := f.NewClient(0)
	c.Clk.Set(500)
	if n := c.ChargeSpin(transport.MakeAddr(0, 0x40), 500, 400, 1000); n != 0 {
		t.Errorf("retries for empty window = %d", n)
	}
	if c.Now() != 500 {
		t.Errorf("clock moved backwards to %d", c.Now())
	}
	// Zero/negative cadence falls back rather than looping forever.
	if n := c.ChargeSpin(transport.MakeAddr(0, 0x40), 500, 10_000, 0); n <= 0 {
		t.Errorf("fallback cadence produced %d retries", n)
	}
}

func TestChargeSpinBounded(t *testing.T) {
	f := spinFabric()
	f.Servers()[0].Grow()
	c := f.NewClient(0)
	// A pathologically long window must not loop unboundedly.
	n := c.ChargeSpin(transport.MakeAddr(0, 0x40), 0, 1<<40, 100)
	if n != maxSpinCharges {
		t.Errorf("retries = %d, want the %d cap", n, maxSpinCharges)
	}
}

func TestClientCount(t *testing.T) {
	f := spinFabric()
	if f.ClientCount() != 0 {
		t.Fatalf("fresh fabric has %d clients", f.ClientCount())
	}
	for i := 0; i < 5; i++ {
		f.NewClient(i % 2)
	}
	if f.ClientCount() != 5 {
		t.Fatalf("client count = %d, want 5", f.ClientCount())
	}
}

// TestYieldOnlyWithSecondClient pins the scheduling gate: a lone client
// issues every verb kind without entering the scheduler, and once a second
// client exists on the fabric every verb yields exactly once.
func TestYieldOnlyWithSecondClient(t *testing.T) {
	var yields int
	defer func(saved func()) { onYield = saved }(onYield)
	onYield = func() { yields++ }

	f := spinFabric()
	base := f.Servers()[0].Grow()
	a, chip := transport.MakeAddr(0, base+256), transport.MakeOnChipAddr(0, 8)
	buf := make([]byte, 64)
	verbs := []struct {
		name string
		fn   func(c *Client)
	}{
		{"Read", func(c *Client) { c.Read(a, buf) }},
		{"ReadMulti", func(c *Client) { c.ReadMulti([]transport.ReadOp{{Addr: a, Buf: buf}, {Addr: a.Add(64), Buf: buf}}) }},
		{"Write", func(c *Client) { c.Write(a, buf) }},
		{"PostWrites", func(c *Client) {
			c.PostWrites(transport.WriteOp{Addr: a, Data: buf}, transport.WriteOp{Addr: a.Add(64), Data: buf})
		}},
		{"CAS", func(c *Client) { c.CAS(a.Add(128), 0, 1) }},
		{"CASBacklog", func(c *Client) { c.CASBacklog(a.Add(128), 1, 0, 1000) }},
		{"CASRead", func(c *Client) { c.CASRead(a.Add(128), 0, 1, a, buf) }},
		{"CAS16", func(c *Client) { c.CAS16(chip, 0, 1) }},
		{"CAS16Backlog", func(c *Client) { c.CAS16Backlog(chip, 1, 0, 1000) }},
		{"CAS16Read", func(c *Client) { c.CAS16Read(chip, 0, 1, transport.MakeOnChipAddr(0, 0), buf[:8]) }},
		{"FAA", func(c *Client) { c.FAA(a.Add(192), 1) }},
		{"ChargeAtomic", func(c *Client) { c.ChargeAtomic(a.Add(192)) }},
		{"ChargeSpin", func(c *Client) { c.ChargeSpin(a, c.Now(), c.Now()+100_000, 2_500) }},
		{"Call", func(c *Client) { c.Call(0, func() {}) }},
	}

	c := f.NewClient(0)
	for _, v := range verbs {
		yields = 0
		v.fn(c)
		if yields != 0 {
			t.Errorf("lone client: %s yielded %d times, want 0", v.name, yields)
		}
	}
	f.NewClient(1)
	for _, v := range verbs {
		yields = 0
		v.fn(c)
		if yields != 1 {
			t.Errorf("second client present: %s yielded %d times, want 1", v.name, yields)
		}
	}
}

// TestAtomicUnitSaturation verifies the per-NIC atomic pipeline bounds
// aggregate host-atomic throughput: hammering distinct addresses from many
// clients completes no faster than unit capacity allows.
func TestAtomicUnitSaturation(t *testing.T) {
	p := sim.DefaultParams()
	f := NewFabric(p, 1, 4)
	f.Servers()[0].Grow()

	const clients, casEach = 8, 200
	cs := make([]*Client, clients)
	for i := range cs {
		cs[i] = f.NewClient(i % 4)
	}
	// Interleave in rounds so all clients' commands overlap in virtual time.
	for r := 0; r < casEach; r++ {
		for i, c := range cs {
			a := transport.MakeAddr(0, uint64(0x1000+i*0x200+r*8))
			c.CAS(a, 0, 1)
		}
	}
	var maxClock int64
	for _, c := range cs {
		if c.Now() > maxClock {
			maxClock = c.Now()
		}
	}
	total := int64(clients * casEach)
	minTime := total * p.HostAtomicUnitNS // pipeline-bound lower bound
	if maxClock < minTime {
		t.Errorf("%d atomics finished at %d ns, faster than the %d ns pipeline bound",
			total, maxClock, minTime)
	}
}
