package alloc

import (
	"sync"
	"testing"
	"testing/quick"

	"sherman/internal/rdma"
	"sherman/internal/sim"
)

func newTestFabric(numMS int) *rdma.Fabric {
	return rdma.NewFabric(sim.DefaultParams(), numMS, 2)
}

// everyLive is the placement view of a fabric with nothing draining.
type everyLive struct{ *rdma.Fabric }

func (v everyLive) MSUsable(ms int) bool { return v.MSAlive(ms) }

func TestThreadAllocatorAlignmentAndDistinctness(t *testing.T) {
	f := newTestFabric(2)
	var st Stats
	a := NewThreadAllocator(f.NewClient(0), everyLive{f}, &st, 0)

	seen := map[rdma.Addr]bool{}
	for i := 0; i < 1000; i++ {
		addr := a.Alloc(1024)
		if addr.Off()%64 != 0 {
			t.Fatalf("allocation %d at %v not 64-byte aligned", i, addr)
		}
		if seen[addr] {
			t.Fatalf("allocation %d at %v overlaps a previous one", i, addr)
		}
		seen[addr] = true
	}
	if st.Nodes.Load() != 1000 {
		t.Errorf("node count = %d, want 1000", st.Nodes.Load())
	}
}

// TestChunkRPCRate: allocations within one chunk must not trigger RPCs; a
// fresh chunk is one RPC.
func TestChunkRPCRate(t *testing.T) {
	f := newTestFabric(1)
	var st Stats
	c := f.NewClient(0)
	a := NewThreadAllocator(c, everyLive{f}, &st, 0)

	// The first chunk on MS 0 loses 64 B to the nil-address carve-out, so
	// one fewer full node fits.
	perChunk := rdma.DefaultChunkSize/1024 - 1
	for i := 0; i < perChunk; i++ {
		a.Alloc(1024)
	}
	if got := st.Chunks.Load(); got != 1 {
		t.Fatalf("chunk RPCs after one chunk's worth of nodes = %d, want 1", got)
	}
	if got := c.M.RPCs; got != 1 {
		t.Fatalf("client RPC count = %d, want 1", got)
	}
	a.Alloc(1024)
	if got := st.Chunks.Load(); got != 2 {
		t.Fatalf("chunk RPCs after spill = %d, want 2", got)
	}
}

// TestRoundRobinAcrossServers: consecutive chunk refills rotate across
// memory servers, staggered by the seed.
func TestRoundRobinAcrossServers(t *testing.T) {
	f := newTestFabric(4)
	var st Stats
	a := NewThreadAllocator(f.NewClient(0), everyLive{f}, &st, 1)

	var order []uint16
	for i := 0; i < 9; i++ {
		// One max-size allocation consumes a whole chunk. (MS 0's very first
		// chunk is 64 B short because of the nil-address carve-out, so the
		// rotation skips it once.)
		addr := a.Alloc(rdma.DefaultChunkSize)
		order = append(order, addr.MS())
	}
	hit := map[uint16]int{}
	for i, ms := range order {
		hit[ms]++
		if i > 0 && order[i] == order[i-1] {
			t.Fatalf("consecutive refills both hit ms%d (order %v)", ms, order)
		}
	}
	if len(hit) != 4 {
		t.Fatalf("rotation covered %d servers, want 4 (order %v)", len(hit), order)
	}
	if order[0] != 1 {
		t.Fatalf("seed 1 should start at ms1, got ms%d", order[0])
	}
}

// TestAllocationsNeverSpanChunks: an object must fit entirely inside its
// chunk, or Server.slice would panic on access.
func TestAllocationsNeverSpanChunks(t *testing.T) {
	f := newTestFabric(1)
	var st Stats
	a := NewThreadAllocator(f.NewClient(0), everyLive{f}, &st, 0)
	sizes := []int{1024, 4096, 64, 8128, 333, 1 << 20}
	for round := 0; round < 200; round++ {
		size := sizes[round%len(sizes)]
		addr := a.Alloc(size)
		start := addr.Off() / rdma.DefaultChunkSize
		end := (addr.Off() + uint64(size) - 1) / rdma.DefaultChunkSize
		if start != end {
			t.Fatalf("allocation of %d B at %v spans chunks %d and %d", size, addr, start, end)
		}
		// The memory must actually be addressable.
		buf := make([]byte, size)
		f.Servers()[addr.MS()].WriteAt(addr.Off(), buf)
	}
}

func TestAllocBadSizesPanic(t *testing.T) {
	f := newTestFabric(1)
	var st Stats
	a := NewThreadAllocator(f.NewClient(0), everyLive{f}, &st, 0)
	for _, size := range []int{0, -1, rdma.DefaultChunkSize + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Alloc(%d) did not panic", size)
				}
			}()
			a.Alloc(size)
		}()
	}
}

// TestConcurrentAllocatorsDisjoint: allocators on different threads hand out
// disjoint regions (each owns its chunks).
func TestConcurrentAllocatorsDisjoint(t *testing.T) {
	f := newTestFabric(2)
	var st Stats
	const threads, allocs = 8, 300

	results := make([][]rdma.Addr, threads)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			a := NewThreadAllocator(f.NewClient(th%2), everyLive{f}, &st, th)
			for i := 0; i < allocs; i++ {
				results[th] = append(results[th], a.Alloc(1024))
			}
		}(th)
	}
	wg.Wait()

	seen := map[rdma.Addr]int{}
	for th, addrs := range results {
		for _, a := range addrs {
			if prev, dup := seen[a]; dup {
				t.Fatalf("threads %d and %d both got %v", prev, th, a)
			}
			seen[a] = th
		}
	}
	if got := st.Nodes.Load(); got != threads*allocs {
		t.Errorf("node count = %d, want %d", got, threads*allocs)
	}
}

// TestBulkSpreadsServers: bulk allocation rotates chunks across servers so a
// bulkloaded tree lands spread out.
func TestBulkSpreadsServers(t *testing.T) {
	f := newTestFabric(4)
	b := NewBulk(f, everyLive{f}, nil)
	perChunk := rdma.DefaultChunkSize / 1024
	hit := map[uint16]bool{}
	for i := 0; i < 4*perChunk; i++ {
		hit[b.Alloc(1024).MS()] = true
	}
	if len(hit) != 4 {
		t.Errorf("bulk allocation touched %d servers, want 4", len(hit))
	}
}

// TestBulkNoTimeAccounting: bulk allocation must not consume virtual time or
// client metrics (it models pre-experiment setup).
func TestBulkNoTimeAccounting(t *testing.T) {
	f := newTestFabric(1)
	var st Stats
	b := NewBulk(f, everyLive{f}, &st)
	for i := 0; i < 100; i++ {
		b.Alloc(2048)
	}
	if got := f.Servers()[0].Inbound.Peek(); got != 0 {
		t.Errorf("bulk allocation advanced the inbound pipeline to %d", got)
	}
	if st.Nodes.Load() != 100 {
		t.Errorf("stats nodes = %d, want 100", st.Nodes.Load())
	}
}

// Property: any legal size sequence yields aligned, in-bounds, non-nil
// addresses.
func TestAllocPropertyAligned(t *testing.T) {
	f := newTestFabric(2)
	var st Stats
	a := NewThreadAllocator(f.NewClient(0), everyLive{f}, &st, 0)
	fn := func(raw uint16) bool {
		size := int(raw)%8192 + 1
		addr := a.Alloc(size)
		return !addr.IsNil() && addr.Off()%64 == 0 &&
			addr.Off()+uint64(size) <= f.Servers()[addr.MS()].Capacity()
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestForwardingSingleTarget pins the one-target-per-chunk contract: a
// second migration of the same source chunk must reuse the installed
// target (so first-generation references keep resolving) — installing a
// fresh one is a protocol violation and panics.
func TestForwardingSingleTarget(t *testing.T) {
	fwd := NewForwarding()
	ck := ChunkID{MS: 1, Index: 3}
	base := rdma.MakeAddr(2, 5*rdma.DefaultChunkSize)
	if _, ok := fwd.Reuse(ck, 0, 1); ok {
		t.Fatal("Reuse found an entry before Install")
	}
	fwd.Install(ck, base, 0, 1)
	got, ok := fwd.Reuse(ck, 1, 7)
	if !ok || got != base {
		t.Fatalf("Reuse = (%v,%v), want (%v,true)", got, ok, base)
	}
	src := ck.ChunkBase().Add(640)
	if r, ok := fwd.Resolve(src); !ok || r != base.Add(640) {
		t.Fatalf("Resolve(%v) = (%v,%v)", src, r, ok)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate Install did not panic")
			}
		}()
		fwd.Install(ck, base.Add(rdma.DefaultChunkSize), 0, 1)
	}()
	// The re-stamped owner (cs 1, epoch 7) governs draining.
	if n := fwd.DropDead(func(cs int, epoch int64) bool { return cs == 1 && epoch == 7 }); n != 0 {
		t.Fatalf("DropDead removed %d live-owner entries", n)
	}
	if n := fwd.DropDead(func(cs int, epoch int64) bool { return false }); n != 1 || fwd.Len() != 0 {
		t.Fatalf("DropDead = %d, len %d; want 1, 0", n, fwd.Len())
	}
}

// dyingGrower is a raw growth view over three servers whose server 1 dies
// inside the nth GrowChunkRaw, whichever server that call grows, the way a
// fabric's death trigger runs: the failover sweep first, then the death is
// published. A growth on the dead server answers base 0, like a dead TCP
// server.
type dyingGrower struct {
	grown    []uint64
	dead     []bool
	calls, n int
	rep      *ReplicaMap
}

func (g *dyingGrower) NumMS() int           { return len(g.grown) }
func (g *dyingGrower) MSAlive(ms int) bool  { return !g.dead[ms] }
func (g *dyingGrower) MSUsable(ms int) bool { return !g.dead[ms] }

func (g *dyingGrower) GrowChunkRaw(ms uint16) uint64 {
	if g.calls++; g.calls == g.n {
		if g.rep != nil {
			g.rep.FailoverServer(1, func(i int) bool { return i != 1 && !g.dead[i] })
		}
		g.dead[1] = true
	}
	if g.dead[ms] {
		return 0
	}
	base := g.grown[ms] * rdma.DefaultChunkSize
	g.grown[ms]++
	return base
}

// TestBulkBornDead: whichever chunk growth server 1 dies inside — its own
// primary's, a replica's for another server, or one of its primary's
// replicas elsewhere — Bulk hands out no address on it afterwards and never
// the same address twice, and under replication no chunk of server 1 is
// registered after the death, as primary or replica.
func TestBulkBornDead(t *testing.T) {
	for _, rf := range []int{0, 2} {
		for n := 1; n <= 12; n++ {
			g := &dyingGrower{grown: make([]uint64, 3), dead: make([]bool, 3), n: n}
			b := NewBulk(g, g, nil)
			if rf > 1 {
				g.rep = NewReplicaMap()
				b.SetReplication(g.rep, rf)
			}
			seen := map[rdma.Addr]bool{}
			for i := 0; i < 32; i++ {
				a := b.Alloc(rdma.DefaultChunkSize / 2)
				if g.dead[1] && a.MS() == 1 {
					t.Fatalf("rf=%d death at call %d: allocation %d at %v on the dead server", rf, n, i, a)
				}
				if seen[a] {
					t.Fatalf("rf=%d death at call %d: allocation %d at %v handed out twice", rf, n, i, a)
				}
				seen[a] = true
			}
			if !g.dead[1] {
				t.Fatalf("rf=%d: fewer than %d growths; the scenario is vacuous", rf, n)
			}
			if g.rep == nil {
				continue
			}
			for _, ck := range g.rep.UnderReplicated(MaxReplicationFactor + 1) { // every registered chunk
				var ts TargetSet
				g.rep.Targets(ck, &ts)
				if ck.MS == 1 || ts.N == 1 && ts.Bases[0].MS() == 1 {
					t.Fatalf("rf=%d death at call %d: chunk %v (replica %v) registered on the dead server", rf, n, ck, ts.Bases[0])
				}
			}
		}
	}
}
