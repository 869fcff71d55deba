package rdma

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"sherman/internal/sim"
	"sherman/internal/transport"
)

func testFabric(numMS, numCS int) *Fabric {
	return NewFabric(sim.DefaultParams(), numMS, numCS)
}

func TestAddrEncoding(t *testing.T) {
	a := transport.MakeAddr(7, 0x123456789a)
	if a.MS() != 7 || a.Off() != 0x123456789a || a.OnChip() || a.IsNil() {
		t.Fatalf("addr round trip failed: %v", a)
	}
	oc := transport.MakeOnChipAddr(3, 64)
	if !oc.OnChip() || oc.MS() != 3 || oc.Off() != 64 {
		t.Fatalf("on-chip addr round trip failed: %v", oc)
	}
	if !transport.NilAddr.IsNil() {
		t.Fatal("NilAddr not nil")
	}
	if a.Add(16).Off() != a.Off()+16 {
		t.Fatal("Add failed")
	}
}

func TestAddrEncodingProperty(t *testing.T) {
	fn := func(ms uint16, off uint64) bool {
		ms &= 0x7fff
		off &= (uint64(1) << 48) - 1
		a := transport.MakeAddr(ms, off)
		return a.MS() == ms && a.Off() == off && !a.OnChip()
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrPanics(t *testing.T) {
	assertPanics(t, func() { transport.MakeAddr(0, 1<<48) })
	assertPanics(t, func() { transport.MakeAddr(1<<15, 0) })
	assertPanics(t, func() { transport.NilAddr.Add(1) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestReadWriteRoundTrip(t *testing.T) {
	f := testFabric(2, 1)
	base := f.Servers()[1].Grow()
	c := f.NewClient(0)
	data := []byte("hello disaggregated memory")
	addr := transport.MakeAddr(1, base+128)
	c.Write(addr, data)
	got := make([]byte, len(data))
	c.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q", got)
	}
	if c.M.RoundTrips != 2 {
		t.Fatalf("round trips = %d, want 2", c.M.RoundTrips)
	}
}

func TestPostWritesInOrderSingleTrip(t *testing.T) {
	f := testFabric(1, 1)
	base := f.Servers()[0].Grow()
	c := f.NewClient(0)
	c.M.BeginOp()
	c.PostWrites(
		transport.WriteOp{Addr: transport.MakeAddr(0, base), Data: []byte{1, 2, 3}},
		transport.WriteOp{Addr: transport.MakeAddr(0, base+64), Data: []byte{4, 5}},
		transport.WriteOp{Addr: transport.MakeAddr(0, base+128), Data: []byte{6}},
	)
	if c.M.OpRoundTrips != 1 {
		t.Fatalf("combined post cost %d round trips, want 1", c.M.OpRoundTrips)
	}
	if c.M.Writes != 3 {
		t.Fatalf("writes = %d", c.M.Writes)
	}
	buf := make([]byte, 1)
	c.Read(transport.MakeAddr(0, base+128), buf)
	if buf[0] != 6 {
		t.Fatal("combined write not applied")
	}
}

func TestPostWritesRejectsCrossServer(t *testing.T) {
	f := testFabric(2, 1)
	f.Servers()[0].Grow()
	f.Servers()[1].Grow()
	c := f.NewClient(0)
	assertPanics(t, func() {
		c.PostWrites(
			transport.WriteOp{Addr: transport.MakeAddr(0, 0), Data: []byte{1}},
			transport.WriteOp{Addr: transport.MakeAddr(1, 0), Data: []byte{2}},
		)
	})
}

func TestCAS(t *testing.T) {
	f := testFabric(1, 2)
	base := f.Servers()[0].Grow()
	c := f.NewClient(0)
	a := transport.MakeAddr(0, base)
	if _, ok := c.CAS(a, 0, 42); !ok {
		t.Fatal("CAS from zero failed")
	}
	prev, ok := c.CAS(a, 0, 99)
	if ok || prev != 42 {
		t.Fatalf("CAS should fail with prev=42, got %d,%v", prev, ok)
	}
	if c.M.CASFailures != 1 {
		t.Fatalf("failures = %d", c.M.CASFailures)
	}
	if _, ok := c.CAS(a, 42, 7); !ok {
		t.Fatal("CAS with correct expected failed")
	}
}

func TestCAS16MaskedSemantics(t *testing.T) {
	f := testFabric(1, 1)
	base := f.Servers()[0].Grow()
	c := f.NewClient(0)
	word := transport.MakeAddr(0, base)
	// Set the full word, then CAS only the middle 16-bit lane.
	c.Write(word, []byte{0x11, 0x11, 0x22, 0x22, 0x33, 0x33, 0x44, 0x44})
	lane := transport.MakeAddr(0, base+2)
	prev, ok := c.CAS16(lane, 0x2222, 0xbeef)
	if !ok || prev != 0x2222 {
		t.Fatalf("CAS16 = %#x,%v", prev, ok)
	}
	got := make([]byte, 8)
	c.Read(word, got)
	want := []byte{0x11, 0x11, 0xef, 0xbe, 0x33, 0x33, 0x44, 0x44}
	if !bytes.Equal(got, want) {
		t.Fatalf("word after CAS16 = %x, want %x", got, want)
	}
}

func TestFAA(t *testing.T) {
	f := testFabric(1, 1)
	base := f.Servers()[0].Grow()
	c := f.NewClient(0)
	a := transport.MakeAddr(0, base+8)
	if prev := c.FAA(a, 5); prev != 0 {
		t.Fatalf("FAA prev = %d", prev)
	}
	if prev := c.FAA(a, 3); prev != 5 {
		t.Fatalf("FAA prev = %d", prev)
	}
}

func TestOnChipMemoryIsolated(t *testing.T) {
	f := testFabric(1, 1)
	base := f.Servers()[0].Grow()
	c := f.NewClient(0)
	host := transport.MakeAddr(0, base)
	chip := transport.MakeOnChipAddr(0, 0)
	c.Write(host, []byte{0xaa})
	c.Write(chip, []byte{0xbb})
	h := make([]byte, 1)
	ch := make([]byte, 1)
	c.Read(host, h)
	c.Read(chip, ch)
	if h[0] != 0xaa || ch[0] != 0xbb {
		t.Fatal("host and on-chip spaces interfere")
	}
}

func TestAtomicTimingOnChipVsHost(t *testing.T) {
	p := sim.DefaultParams()
	f := NewFabric(p, 2, 2)
	base := f.Servers()[0].Grow()
	f.Servers()[1].Grow()

	cHost := f.NewClient(0)
	cChip := f.NewClient(1)
	// Same bucket hammered: host atomics must be much slower than on-chip.
	hostA := transport.MakeAddr(0, base)
	chipA := transport.MakeOnChipAddr(1, 0)
	const n = 200
	for i := 0; i < n; i++ {
		cHost.CAS(hostA, 1, 1) // always fails; timing is what matters
		cChip.CAS16(chipA, 1, 1)
	}
	if cHost.Now() < cChip.Now()+(p.HostAtomicNS-p.OnChipAtomicNS)*n/2 {
		t.Fatalf("host atomics (%d) not sufficiently slower than on-chip (%d)",
			cHost.Now(), cChip.Now())
	}
}

func TestBandwidthBoundWrites(t *testing.T) {
	p := sim.DefaultParams()
	f := NewFabric(p, 1, 1)
	base := f.Servers()[0].Grow()
	c := f.NewClient(0)
	big := make([]byte, 4096)
	t0 := c.Now()
	c.Write(transport.MakeAddr(0, base), big)
	perOp := c.Now() - t0
	// 4 KB at 0.08 ns/B = ~327 ns of service beyond the RTT.
	if perOp < p.RTTNS+int64(4096*p.NSPerByte) {
		t.Fatalf("large write too cheap: %d ns", perOp)
	}
}

// TestTornReadAt64ByteGranularity forces a tear through the verbs: a write
// of two 64-byte lines is held after its first line (Server.HoldWrite), and
// another client's READ from inside the hold must see the new first line
// whole and the old second line whole — a tear at the line boundary, never
// inside a line. The write then completes. The race that makes such tears
// happen on their own is memstore's TestTornReadAt64ByteGranularity.
func TestTornReadAt64ByteGranularity(t *testing.T) {
	f := testFabric(1, 2)
	srv := f.Servers()[0]
	base := srv.Grow()
	w := f.NewClient(0)
	r := f.NewClient(1)
	pa := bytes.Repeat([]byte{0xaa}, 128)
	pb := bytes.Repeat([]byte{0xbb}, 128)
	addr := transport.MakeAddr(0, base)
	w.Write(addr, pa)

	buf := make([]byte, 128)
	srv.HoldWrite(func() { r.Read(addr, buf) })
	w.Write(addr, pb)
	if !bytes.Equal(buf[:64], pb[:64]) || !bytes.Equal(buf[64:], pa[64:]) {
		t.Fatalf("read inside the held write = %x, want the new first line and the old second", buf)
	}
	r.Read(addr, buf)
	if !bytes.Equal(buf, pb) {
		t.Fatalf("read after the held write completed = %x, want the new image whole", buf)
	}
}

func TestGrowAndBounds(t *testing.T) {
	f := testFabric(1, 1)
	s := f.Servers()[0]
	if s.Capacity() != 0 {
		t.Fatal("fresh server has capacity")
	}
	b0 := s.Grow()
	b1 := s.Grow()
	if b0 != 0 || b1 != transport.DefaultChunkSize {
		t.Fatalf("chunk bases %d, %d", b0, b1)
	}
	if s.Capacity() != 2*transport.DefaultChunkSize {
		t.Fatal("capacity wrong")
	}
	c := f.NewClient(0)
	assertPanics(t, func() { c.Read(transport.MakeAddr(0, 2*transport.DefaultChunkSize), make([]byte, 8)) })
	// Objects must not span chunks.
	assertPanics(t, func() { c.Read(transport.MakeAddr(0, transport.DefaultChunkSize-4), make([]byte, 8)) })
}

func TestRPCChargesMemoryThread(t *testing.T) {
	p := sim.DefaultParams()
	f := NewFabric(p, 1, 1)
	c := f.NewClient(0)
	ran := false
	t0 := c.Now()
	c.Call(0, func() { ran = true })
	if !ran {
		t.Fatal("handler did not run")
	}
	if c.Now()-t0 < p.RTTNS+p.MemThreadRPCNS {
		t.Fatalf("RPC too cheap: %d", c.Now()-t0)
	}
	if c.M.RPCs != 1 {
		t.Fatal("RPC not counted")
	}
}

func TestReadMultiParallel(t *testing.T) {
	p := sim.DefaultParams()
	f := NewFabric(p, 4, 1)
	var addrs []transport.Addr
	for ms := 0; ms < 4; ms++ {
		base := f.Servers()[ms].Grow()
		addrs = append(addrs, transport.MakeAddr(uint16(ms), base))
	}
	c := f.NewClient(0)
	var reqs []transport.ReadOp
	for _, a := range addrs {
		reqs = append(reqs, transport.ReadOp{Addr: a, Buf: make([]byte, 1024)})
	}
	c.M.BeginOp()
	t0 := c.Now()
	c.ReadMulti(reqs)
	elapsed := c.Now() - t0
	if c.M.OpRoundTrips != 1 {
		t.Fatalf("parallel reads cost %d round trips", c.M.OpRoundTrips)
	}
	// Four parallel 1 KB reads must cost far less than four serial ones.
	serial := 4 * (p.RTTNS + int64(1024*p.NSPerByte))
	if elapsed >= serial {
		t.Fatalf("ReadMulti not parallel: %d >= %d", elapsed, serial)
	}
}

func TestConcurrentAtomicsLinearize(t *testing.T) {
	f := testFabric(1, 4)
	base := f.Servers()[0].Grow()
	a := transport.MakeAddr(0, base)
	const threads = 8
	const each = 500
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(cs int) {
			defer wg.Done()
			c := f.NewClient(cs % 4)
			for j := 0; j < each; j++ {
				c.FAA(a, 1)
			}
		}(i)
	}
	wg.Wait()
	c := f.NewClient(0)
	buf := make([]byte, 8)
	c.Read(a, buf)
	var got uint64
	for i := 7; i >= 0; i-- {
		got = got<<8 | uint64(buf[i])
	}
	if got != threads*each {
		t.Fatalf("FAA lost updates: %d, want %d", got, threads*each)
	}
}
