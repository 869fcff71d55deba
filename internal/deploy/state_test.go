package deploy_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/deploy"
	"sherman/internal/transport"
)

// fakeFabric is the least a fabric can be: sparse byte-addressed memory,
// per-server chunk growth and a dead flag. No simulator, no sockets — what
// the tests below pin is the deployment contract every fabric inherits by
// embedding deploy.State.
type fakeFabric struct {
	mem    map[transport.Addr]byte
	grown  []uint64 // chunks grown per server
	dead   []bool
	rawOps []transport.Addr // address of every ReadRaw op, in order

	rawBatches int // ReadRaw and WriteRaw calls
}

func newFake(numMS int) *fakeFabric {
	return &fakeFabric{mem: map[transport.Addr]byte{}, grown: make([]uint64, numMS), dead: make([]bool, numMS)}
}

func (f *fakeFabric) NumMS() int          { return len(f.grown) }
func (f *fakeFabric) MSAlive(ms int) bool { return !f.dead[ms] }

func (f *fakeFabric) GrowChunkRaw(ms uint16) uint64 {
	base := f.grown[ms] * transport.DefaultChunkSize
	f.grown[ms]++
	return base
}

// Dead memory reads as zeros and discards writes, as on every real fabric.
func (f *fakeFabric) ReadRaw(ops ...transport.ReadOp) {
	f.rawBatches++
	for _, op := range ops {
		f.rawOps = append(f.rawOps, op.Addr)
		for i := range op.Buf {
			op.Buf[i] = 0
			if !f.dead[op.Addr.MS()] {
				op.Buf[i] = f.mem[op.Addr+transport.Addr(i)]
			}
		}
	}
}

func (f *fakeFabric) WriteRaw(ops ...transport.WriteOp) {
	f.rawBatches++
	for _, op := range ops {
		if f.dead[op.Addr.MS()] {
			continue
		}
		for i, b := range op.Data {
			f.mem[op.Addr+transport.Addr(i)] = b
		}
	}
}

// read and write are single-op raw accesses for the tests' own setup and
// checks.
func (f *fakeFabric) read(a transport.Addr, buf []byte) {
	f.ReadRaw(transport.ReadOp{Addr: a, Buf: buf})
}
func (f *fakeFabric) write(a transport.Addr, d []byte) {
	f.WriteRaw(transport.WriteOp{Addr: a, Data: d})
}

// fakeVerbs is one client thread over the fake: only the verbs the root
// helpers and the thread allocator issue are implemented; anything else
// nil-derefs the embedded interface.
type fakeVerbs struct {
	transport.Transport
	f             *fakeFabric
	reads, writes int
}

func (v *fakeVerbs) Read(a transport.Addr, buf []byte) { v.reads++; v.f.read(a, buf) }
func (v *fakeVerbs) Write(a transport.Addr, d []byte)  { v.writes++; v.f.write(a, d) }
func (v *fakeVerbs) NumMS() int                        { return v.f.NumMS() }
func (v *fakeVerbs) MSAlive(ms int) bool               { return v.f.MSAlive(ms) }
func (v *fakeVerbs) GrowChunk(ms uint16) uint64        { return v.f.GrowChunkRaw(ms) }

func (v *fakeVerbs) CAS(a transport.Addr, old, new uint64) (uint64, bool) {
	var b [8]byte
	v.f.read(a, b[:])
	prev := binary.LittleEndian.Uint64(b[:])
	if prev != old {
		return prev, false
	}
	binary.LittleEndian.PutUint64(b[:], new)
	v.f.write(a, b[:])
	return prev, true
}

func newState(t *testing.T, numMS, rf int) (*deploy.State, *fakeFabric) {
	t.Helper()
	f := newFake(numMS)
	s, err := deploy.New(f, rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReserveSuperblock(); err != nil {
		t.Fatal(err)
	}
	return s, f
}

func TestCheckFactor(t *testing.T) {
	for _, tc := range []struct {
		rf, numMS int
		ok        bool
	}{
		{0, 1, true}, {1, 1, true}, {2, 2, true}, {alloc.MaxReplicationFactor, 8, true},
		{-1, 4, false}, {alloc.MaxReplicationFactor + 1, 8, false}, {3, 2, false},
	} {
		if err := deploy.CheckFactor(tc.rf, tc.numMS); (err == nil) != tc.ok {
			t.Errorf("CheckFactor(%d, %d) = %v, want ok=%v", tc.rf, tc.numMS, err, tc.ok)
		}
		// New applies the same check against the fabric's own size.
		if _, err := deploy.New(newFake(tc.numMS), tc.rf); (err == nil) != tc.ok {
			t.Errorf("New(%d servers, factor %d) = %v, want ok=%v", tc.numMS, tc.rf, err, tc.ok)
		}
	}
	if s, _ := deploy.New(newFake(2), 0); s.Replicas() != nil || s.ReplicationFactor() != 0 {
		t.Error("factor 0 must leave replication off and echo 0")
	}
	if s, _ := deploy.New(newFake(2), 2); s.Replicas() == nil || s.ReplicationFactor() != 2 {
		t.Error("factor 2 must build the replica table and echo 2")
	}
}

func TestReserveSuperblock(t *testing.T) {
	s, f := newState(t, 2, 0)
	if f.grown[0] != 1 || f.grown[1] != 0 {
		t.Fatalf("grown = %v, want the superblock chunk on server 0 only", f.grown)
	}
	if a := s.NewBulk().Alloc(64); a.IsNil() || a.Off() == 0 && a.MS() == 0 {
		t.Fatalf("first allocation %v landed on the superblock", a)
	}
	if err := s.ReserveSuperblock(); err == nil {
		t.Fatal("second reservation on a grown server 0 must fail (not fresh)")
	}
}

// TestRootRoundTrip: the one superblock definition, through its three
// accessors — untimed SetRoot/RawRoot and the verb-issuing ReadRoot/CASRoot.
func TestRootRoundTrip(t *testing.T) {
	s, f := newState(t, 2, 0)
	v := &fakeVerbs{f: f}
	root := transport.MakeAddr(1, 0x4000)
	s.SetRoot(root, 3)
	if r, lvl := deploy.ReadRoot(v); r != root || lvl != 3 || v.reads != 1 {
		t.Fatalf("ReadRoot = (%v, %d) in %d READs, want (%v, 3) in 1", r, lvl, v.reads, root)
	}
	if r, lvl := s.RawRoot(); r != root || lvl != 3 {
		t.Fatalf("RawRoot = (%v, %d), want (%v, 3)", r, lvl, root)
	}

	next := transport.MakeAddr(0, 0x2000)
	if !deploy.CASRoot(v, root, next, 4) {
		t.Fatal("CASRoot with the correct old value failed")
	}
	if r, lvl := deploy.ReadRoot(v); r != next || lvl != 4 {
		t.Fatalf("root after CAS = (%v, %d), want (%v, 4)", r, lvl, next)
	}
	// A stale CAS fails, writes no level hint and leaves the root alone.
	writes := v.writes
	if deploy.CASRoot(v, root, transport.MakeAddr(0, 0x3000), 9) {
		t.Fatal("CASRoot with a stale old value succeeded")
	}
	if r, lvl := s.RawRoot(); r != next || lvl != 4 || v.writes != writes {
		t.Fatalf("failed CAS left root (%v, %d) after %d writes, want (%v, 4) and none", r, lvl, v.writes-writes, next)
	}
}

// TestAllocatorsAndRawWriteMirror: both allocator constructors are wired
// for replica placement and counted in AllocStats, and one RawWrite of
// several ops reaches the fabric as one batch that lands every op on every
// registered replica at the same intra-chunk offset.
func TestAllocatorsAndRawWriteMirror(t *testing.T) {
	s, f := newState(t, 3, 3)
	bulk := s.NewBulk().Alloc(128)
	thread := s.NewThreadAllocator(&fakeVerbs{f: f}, 1).Alloc(128)
	if got := s.AllocStats.Chunks.Load(); got != 2 {
		t.Fatalf("AllocStats.Chunks = %d, want 2 (one bulk, one thread)", got)
	}
	if got := s.AllocStats.Nodes.Load(); got != 2 {
		t.Fatalf("AllocStats.Nodes = %d, want 2", got)
	}
	addrs := []transport.Addr{bulk, thread}
	ops := make([]transport.WriteOp, len(addrs), 8) // spare capacity RawWrite must not scribble on
	for i, a := range addrs {
		ops[i] = transport.WriteOp{Addr: a.Add(64), Data: []byte{1, 2, 3, 4, 5, 6, 7, byte(a.MS())}}
	}
	batches := f.rawBatches
	s.RawWrite(ops...)
	if spare := ops[:cap(ops)][len(addrs)]; f.rawBatches != batches+1 || spare.Data != nil {
		t.Fatalf("RawWrite: %d fabric calls, spare slot %+v; want 1 call and the spare untouched", f.rawBatches-batches, spare)
	}
	for i, a := range addrs {
		var ts alloc.TargetSet
		if !s.Rep.Targets(alloc.ChunkOf(a), &ts) || ts.N != 2 {
			t.Fatalf("chunk of %v has %d replicas registered, want 2", a, ts.N)
		}
		data := ops[i].Data
		inner := a.Add(64).Off() % transport.DefaultChunkSize
		got := make([]byte, len(data))
		for _, at := range []transport.Addr{a.Add(64), ts.Bases[0].Add(inner), ts.Bases[1].Add(inner)} {
			f.read(at, got)
			if !bytes.Equal(got, data) {
				t.Fatalf("copy at %v = %v, want %v", at, got, data)
			}
		}
		if ts.Bases[0].MS() == a.MS() || ts.Bases[1].MS() == a.MS() || ts.Bases[0].MS() == ts.Bases[1].MS() {
			t.Fatalf("replicas of %v on servers %d,%d: want two distinct other servers", a, ts.Bases[0].MS(), ts.Bases[1].MS())
		}
	}
	// Off: no table, no mirroring, the write still lands.
	s0, f0 := newState(t, 2, 0)
	a := s0.NewBulk().Alloc(64)
	s0.RawWrite(transport.WriteOp{Addr: a, Data: []byte{7}})
	if s0.Rep != nil || f0.mem[a] != 7 {
		t.Fatalf("unreplicated RawWrite: Rep=%v mem=%d", s0.Rep, f0.mem[a])
	}
}

// TestDrainingPlacement: draining is the State's, usable is alive and not
// draining, both allocators place by it, and the last usable server cannot
// be drained — a dead server does not count as one.
func TestDrainingPlacement(t *testing.T) {
	s, f := newState(t, 3, 0)
	if err := s.SetDraining(1, true); err != nil {
		t.Fatal(err)
	}
	f.dead[2] = true
	if s.MSUsable(1) || s.MSUsable(2) || !s.MSUsable(0) || !s.Draining(1) || s.Draining(2) {
		t.Fatalf("usable %v %v %v, draining %v %v", s.MSUsable(0), s.MSUsable(1), s.MSUsable(2), s.Draining(1), s.Draining(2))
	}
	b, th := s.NewBulk(), s.NewThreadAllocator(&fakeVerbs{f: f}, 1)
	for i := 0; i < 4; i++ {
		for _, a := range []transport.Addr{b.Alloc(transport.DefaultChunkSize / 2), th.Alloc(transport.DefaultChunkSize / 2)} {
			if a.MS() != 0 {
				t.Fatalf("allocation %d at %v: want server 0, the only usable one", i, a)
			}
		}
	}
	if err := s.SetDraining(0, true); err == nil {
		t.Fatal("drained the last usable server")
	}
	for _, ms := range []int{1, 2} { // already draining; dead
		if err := s.SetDraining(ms, true); err != nil {
			t.Fatalf("SetDraining(%d): %v", ms, err)
		}
	}
	if err := s.SetDraining(3, true); err == nil {
		t.Fatal("drained a server that does not exist")
	}
	if err := s.SetDraining(1, false); err != nil || !s.MSUsable(1) {
		t.Fatalf("undrain: %v, usable %v", err, s.MSUsable(1))
	}
}

// TestFailoverPromotes: promotion installs forwarding and runs every
// invalidator exactly once per promoted chunk, all before Failover returns;
// afterwards RawRead serves the dead chunks from their promoted replicas.
func TestFailoverPromotes(t *testing.T) {
	s, f := newState(t, 3, 2)
	b := s.NewBulk()
	var addrs []transport.Addr
	for i := 0; i < 6; i++ { // bulk stripes servers: two nodes per server
		a := b.Alloc(64)
		s.RawWrite(transport.WriteOp{Addr: a, Data: []byte{byte(0xA0 + i)}})
		addrs = append(addrs, a)
	}

	const victim = 1
	var calls [2]map[alloc.ChunkID]int
	for i := range calls {
		calls[i] = map[alloc.ChunkID]int{}
		s.OnChunkInvalidate(func(ck alloc.ChunkID) {
			calls[i][ck]++
			if ck.MS != victim {
				t.Errorf("invalidator %d ran for chunk %v of a live server", i, ck)
			}
			if fwd, ok := s.Fwd.Resolve(ck.ChunkBase()); !ok || !f.MSAlive(int(fwd.MS())) {
				t.Errorf("invalidator %d ran before chunk %v forwards to a live server", i, ck)
			}
		})
	}

	f.dead[victim] = true
	s.Failover(victim, f.MSAlive)

	promoted := map[alloc.ChunkID]bool{}
	for _, a := range addrs {
		if a.MS() == victim {
			promoted[alloc.ChunkOf(a)] = true
		}
	}
	if len(promoted) == 0 {
		t.Fatal("no chunk had its primary on the victim; the scenario is vacuous")
	}
	if got := s.Failovers(); got != int64(len(promoted)) {
		t.Fatalf("Failovers = %d, want %d", got, len(promoted))
	}
	for i := range calls {
		if len(calls[i]) != len(promoted) {
			t.Fatalf("invalidator %d saw chunks %v, want exactly %v", i, calls[i], promoted)
		}
		for ck, n := range calls[i] {
			if n != 1 || !promoted[ck] {
				t.Fatalf("invalidator %d ran %d times for %v", i, n, ck)
			}
		}
	}
	if s.Forwarding().Len() != len(promoted) || s.Rep.Lost() != 0 {
		t.Fatalf("forwarding entries = %d, lost = %d; want %d, 0", s.Forwarding().Len(), s.Rep.Lost(), len(promoted))
	}
	for i, a := range addrs {
		var got [1]byte
		s.RawRead(transport.ReadOp{Addr: a, Buf: got[:]})
		if got[0] != byte(0xA0+i) {
			t.Fatalf("RawRead(%v) after failover = %#x, want %#x", a, got[0], 0xA0+i)
		}
	}

	// Without replication a death promotes nothing and runs no hook.
	s0, f0 := newState(t, 2, 0)
	s0.OnChunkInvalidate(func(alloc.ChunkID) { t.Error("invalidator ran with replication off") })
	f0.dead[1] = true
	s0.Failover(1, f0.MSAlive)
	if s0.Failovers() != 0 || s0.Forwarding().Len() != 0 {
		t.Fatalf("unreplicated failover: %d promotions, %d forwarding entries", s0.Failovers(), s0.Forwarding().Len())
	}
}

// TestRawReadChase: a chunk failed over from ms1 to ms2 and then from ms2
// to ms0 resolves through two hops; a chain longer than MaxForwardHops is
// abandoned at the bound (a constant once silently conflated with the
// replication-factor cap); a live server is read in place.
func TestRawReadChase(t *testing.T) {
	s, f := newState(t, 3, 0)
	base := func(ms uint16) transport.Addr { return transport.MakeAddr(ms, f.GrowChunkRaw(ms)) }
	b1, b2, b0 := base(1), base(2), base(0)
	data := []byte("surviving copy on ms0")
	// Only the final holder has the bytes; the intermediates stay empty, as
	// after real promotions (the data moved by mirroring, not by the map).
	f.write(b0.Add(128), data)
	s.Fwd.InstallReplica(alloc.ChunkOf(b1), b2)
	s.Fwd.InstallReplica(alloc.ChunkOf(b2), b0)

	buf := make([]byte, len(data))
	s.RawRead(transport.ReadOp{Addr: b1.Add(128), Buf: buf})
	if !bytes.Equal(buf, make([]byte, len(buf))) || f.rawOps[len(f.rawOps)-1] != b1.Add(128) {
		t.Fatalf("live server: read %q at %v, want zeros in place at %v", buf, f.rawOps[len(f.rawOps)-1], b1.Add(128))
	}
	f.dead[1], f.dead[2] = true, true
	s.RawRead(transport.ReadOp{Addr: b1.Add(128), Buf: buf})
	if !bytes.Equal(buf, data) {
		t.Fatalf("RawRead through 2 hops = %q, want %q", buf, data)
	}
	// In a batch each op chases on its own, the fabric sees one call, and
	// the caller's ops keep the addresses it named.
	ops := []transport.ReadOp{
		{Addr: b1.Add(128), Buf: make([]byte, len(data))}, // two hops
		{Addr: b0.Add(128), Buf: make([]byte, len(data))}, // in place
	}
	batches := f.rawBatches
	s.RawRead(ops...)
	if f.rawBatches != batches+1 || ops[0].Addr != b1.Add(128) || !bytes.Equal(ops[0].Buf, data) || !bytes.Equal(ops[1].Buf, data) {
		t.Fatalf("batched RawRead: %d fabric calls, op 0 at %v = %q, op 1 = %q; want 1 call, %v, %q twice",
			f.rawBatches-batches, ops[0].Addr, ops[0].Buf, ops[1].Buf, b1.Add(128), data)
	}

	// MaxForwardHops+1 generations, all on the dead server 1, the last
	// forwarding to live data: the chase gives up one generation short.
	gen := make([]transport.Addr, alloc.MaxForwardHops+2)
	for i := range gen {
		gen[i] = base(1)
	}
	live := base(0)
	f.write(live, []byte{0xEE})
	for i := 0; i+1 < len(gen); i++ {
		s.Fwd.InstallReplica(alloc.ChunkOf(gen[i]), gen[i+1])
	}
	s.Fwd.InstallReplica(alloc.ChunkOf(gen[len(gen)-1]), live)
	var one [1]byte
	s.RawRead(transport.ReadOp{Addr: gen[0], Buf: one[:]})
	if last := f.rawOps[len(f.rawOps)-1]; last != gen[alloc.MaxForwardHops] || one[0] != 0 {
		t.Fatalf("over-long chain read %v (= %#x), want it abandoned at generation %d (%v)",
			last, one[0], alloc.MaxForwardHops, gen[alloc.MaxForwardHops])
	}
	s.RawRead(transport.ReadOp{Addr: gen[2], Buf: one[:]}) // within the bound from here
	if one[0] != 0xEE {
		t.Fatalf("chain of %d hops = %#x, want 0xEE", alloc.MaxForwardHops, one[0])
	}
}
