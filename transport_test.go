package sherman

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sherman/internal/testutil"
)

// TestEMethods covers the error-returning synchronous API: the happy path,
// the reserved-key rejection, and the post-crash ErrSessionDead contract
// that replaces the legacy methods' panics.
func TestEMethods(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, TreeOptions{})
	s := openSession(t, tree, 0)

	if err := s.PutE(7, 70); err != nil {
		t.Fatalf("PutE: %v", err)
	}
	if v, ok, err := s.GetE(7); err != nil || !ok || v != 70 {
		t.Fatalf("GetE(7) = %d, %v, %v", v, ok, err)
	}
	if _, ok, err := s.GetE(8); err != nil || ok {
		t.Fatalf("GetE(8) = present (err %v), want absent", err)
	}
	if err := s.PutE(9, 90); err != nil {
		t.Fatal(err)
	}
	kvs, err := s.ScanE(1, 10)
	if err != nil || len(kvs) != 2 || kvs[0].Key != 7 || kvs[1].Key != 9 {
		t.Fatalf("ScanE = %v, %v", kvs, err)
	}
	if found, err := s.DeleteE(7); err != nil || !found {
		t.Fatalf("DeleteE(7) = %v, %v", found, err)
	}
	if found, err := s.DeleteE(7); err != nil || found {
		t.Fatalf("DeleteE(7) again = %v, %v", found, err)
	}

	if err := s.PutE(0, 1); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("PutE(0) err = %v, want ErrReservedKey", err)
	}
	if _, err := s.DeleteE(0); !errors.Is(err, ErrReservedKey) {
		t.Fatalf("DeleteE(0) err = %v, want ErrReservedKey", err)
	}

	// A crashed compute server turns every E-method into ErrSessionDead —
	// no panics.
	if err := c.KillComputeServer(0); err != nil {
		t.Fatal(err)
	}
	if err := s.PutE(5, 50); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("PutE after crash err = %v, want ErrSessionDead", err)
	}
	if _, _, err := s.GetE(5); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("GetE after crash err = %v, want ErrSessionDead", err)
	}
	if _, err := s.DeleteE(5); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("DeleteE after crash err = %v, want ErrSessionDead", err)
	}
	if _, err := s.ScanE(1, 4); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("ScanE after crash err = %v, want ErrSessionDead", err)
	}
}

// TestCursorErr checks both ends of the Cursor.Err contract: nil after a
// clean exhaustion, ErrSessionDead after the session's compute server dies
// mid-iteration — with Next ending the iteration instead of panicking.
func TestCursorErr(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, TreeOptions{})
	s := openSession(t, tree, 0)
	for k := uint64(1); k <= 100; k++ {
		if err := s.PutE(k, k*3); err != nil {
			t.Fatal(err)
		}
	}

	cur := s.Cursor(1)
	n := 0
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
		n++
	}
	if n != 100 || cur.Err() != nil {
		t.Fatalf("clean cursor: %d pairs, err %v", n, cur.Err())
	}

	cur = s.Cursor(1)
	if _, ok := cur.Next(); !ok {
		t.Fatal("first Next failed")
	}
	if err := c.KillComputeServer(0); err != nil {
		t.Fatal(err)
	}
	// Drain the already-buffered leaf; the next refill must fail cleanly.
	for _, ok := cur.Next(); ok; _, ok = cur.Next() {
	}
	if !errors.Is(cur.Err(), ErrSessionDead) {
		t.Fatalf("cursor err after crash = %v, want ErrSessionDead", cur.Err())
	}
}

// TestFabricParamsValidation checks the typed config rejections: a negative
// fabric field names itself in ErrBadFabricParams, any fabric override on
// TCP is rejected (a real network's timing is not tunable), and the
// sim-only features are refused up front with ErrSimOnly.
func TestFabricParamsValidation(t *testing.T) {
	_, err := NewCluster(ClusterConfig{
		MemoryServers: 1, ComputeServers: 1,
		Fabric: FabricParams{RTTNS: -1},
	})
	if !errors.Is(err, ErrBadFabricParams) || !strings.Contains(err.Error(), "RTTNS") {
		t.Fatalf("negative RTTNS err = %v, want ErrBadFabricParams naming RTTNS", err)
	}
	_, err = NewCluster(ClusterConfig{
		MemoryServers: 1, ComputeServers: 1,
		Fabric: FabricParams{AtomicBuckets: -5},
	})
	if !errors.Is(err, ErrBadFabricParams) || !strings.Contains(err.Error(), "AtomicBuckets") {
		t.Fatalf("negative AtomicBuckets err = %v", err)
	}

	_, err = NewCluster(ClusterConfig{
		MemoryServers: 1, ComputeServers: 1, Transport: TransportTCP,
		Fabric: FabricParams{RTTNS: 2000},
	})
	if !errors.Is(err, ErrBadFabricParams) || !strings.Contains(err.Error(), "RTTNS") {
		t.Fatalf("fabric override on tcp err = %v, want ErrBadFabricParams naming RTTNS", err)
	}
	// Replication on TCP is real now (§13); only its bounds are rejected.
	_, err = NewCluster(ClusterConfig{
		MemoryServers: 2, ComputeServers: 1, Transport: TransportTCP,
		ReplicationFactor: 5,
	})
	if err == nil || !strings.Contains(err.Error(), "ReplicationFactor") {
		t.Fatalf("oversized factor on tcp err = %v, want ReplicationFactor range error", err)
	}
	_, err = NewCluster(ClusterConfig{
		Transport: TransportTCP, ComputeServers: 1,
		Endpoints:         []string{"127.0.0.1:1", "127.0.0.1:2"},
		ReplicationFactor: 3,
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("factor > servers on tcp err = %v, want exceeds error", err)
	}
	_, err = NewCluster(ClusterConfig{
		MemoryServers: 2, ComputeServers: 1, Transport: TransportTCP,
		MaxMemoryServers: 4,
	})
	if !errors.Is(err, ErrSimOnly) {
		t.Fatalf("scale-out headroom on tcp err = %v, want ErrSimOnly", err)
	}
	if _, err = NewCluster(ClusterConfig{MemoryServers: 1, ComputeServers: 1, Transport: "infiniband"}); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

// TestKillMemoryServerZeroRejected pins the superblock single-point
// contract: memory server 0 holds the superblock and cannot be killed
// (DESIGN.md §12).
func TestKillMemoryServerZeroRejected(t *testing.T) {
	c := testCluster(t)
	if err := c.KillMemoryServer(0); err == nil || !strings.Contains(err.Error(), "superblock") {
		t.Fatalf("KillMemoryServer(0) err = %v, want superblock rejection", err)
	}
	if err := c.KillMemoryServer(-1); err == nil {
		t.Fatal("KillMemoryServer(-1) accepted")
	}
}

// TestTCPDifferential runs the random-stream oracle against a tree over the
// TCP transport with two real shermand memory-server processes. It
// exercises launch, the wire protocol, doorbell coalescing, pipelined
// sessions, Exec batches and teardown end to end.
func TestTCPDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	c, err := NewCluster(ClusterConfig{
		MemoryServers:  2,
		ComputeServers: 2,
		Transport:      TransportTCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tree, err := c.CreateTree(TreeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		opsPerDepth = 3000
		keySpace    = 1024
		scanSpan    = 16
		execBatch   = 8
	)
	model := testutil.NewModel()
	var kvs []KV
	for k := uint64(1); k <= 256; k++ {
		kvs = append(kvs, KV{Key: k, Value: k * 7})
		model.Put(k, k*7)
	}
	if err := tree.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	randOp := func() Op {
		key := uint64(rng.Intn(keySpace)) + 1
		switch r := rng.Intn(100); {
		case r < 45:
			return PutOp(key, rng.Uint64()|1)
		case r < 75:
			return GetOp(key)
		case r < 90:
			return DeleteOp(key)
		}
		return ScanOp(key, scanSpan)
	}
	// check replays op into the model and reports how got differs from the
	// result a sequential execution must give.
	check := func(op Op, got Result) error {
		var want Result
		switch op.Kind {
		case OpPut:
			model.Put(op.Key, op.Value)
		case OpGet:
			want.Value, want.Found = model.Get(op.Key)
		case OpDelete:
			want.Found = model.Delete(op.Key)
		case OpScan:
			want.KVs = model.Scan(op.Key, op.Span)
		}
		if got.Err != nil || got.Found != want.Found || got.Value != want.Value || !slices.Equal(got.KVs, want.KVs) {
			return fmt.Errorf("%+v = %+v, oracle %+v", op, got, want)
		}
		return nil
	}

	// Synchronous E-methods, one op at a time.
	for _, depth := range []int{1, 4, 8} {
		s := openSession(t, tree, depth%c.ComputeServers(), PipelineDepth(depth))
		for i := 0; i < opsPerDepth; i++ {
			op := randOp()
			var got Result
			switch op.Kind {
			case OpPut:
				got.Err = s.PutE(op.Key, op.Value)
			case OpGet:
				got.Value, got.Found, got.Err = s.GetE(op.Key)
			case OpDelete:
				got.Found, got.Err = s.DeleteE(op.Key)
			case OpScan:
				got.KVs, got.Err = s.ScanE(op.Key, op.Span)
			}
			if err := check(op, got); err != nil {
				t.Fatalf("depth %d op %d: %v", depth, i, err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Exec batches of mixed ops: a batch is observably sequential, so each
	// slot is checked against the model replayed in submission order.
	for _, depth := range []int{1, 4} {
		s := openSession(t, tree, depth%c.ComputeServers(), PipelineDepth(depth))
		for b := 0; b < opsPerDepth/execBatch; b++ {
			ops := make([]Op, execBatch)
			for i := range ops {
				ops[i] = randOp()
			}
			for i, got := range s.Exec(ops) {
				if err := check(ops[i], got); err != nil {
					t.Fatalf("depth %d Exec batch %d slot %d: %v", depth, b, i, err)
				}
			}
		}
	}

	// Streamed futures: a full window of Submits held open at once, each
	// checked against the model replayed in submission order (the pipeline
	// preserves per-key order and orders scans after outstanding writes, so
	// the submit-time state is what each op observes).
	{
		s := openSession(t, tree, 0, PipelineDepth(8))
		type pending struct {
			op  Op
			fut *Future
		}
		var window []pending
		drain := func() {
			for _, p := range window {
				if err := check(p.op, p.fut.Wait()); err != nil {
					t.Fatalf("streamed: %v", err)
				}
			}
			window = window[:0]
		}
		for i := 0; i < 2000; i++ {
			op := randOp()
			window = append(window, pending{op, s.Submit(op)})
			if len(window) >= 64 {
				drain()
			}
		}
		drain()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent sessions: two depth-8 sessions on different compute servers
	// drive disjoint key ranges through the shared multiplexed connections
	// at once; each verifies against its own oracle.
	{
		var wg sync.WaitGroup
		errs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := tree.SessionAt(w, PipelineDepth(8))
				if err != nil {
					errs <- err
					return
				}
				base := uint64(10_000 + w*10_000)
				local := make(map[uint64]uint64)
				lr := rand.New(rand.NewSource(int64(100 + w)))
				for i := 0; i < 1500; i++ {
					key := base + uint64(lr.Intn(512)) + 1
					switch r := lr.Intn(100); {
					case r < 50:
						v := lr.Uint64() | 1
						if err := s.PutE(key, v); err != nil {
							errs <- err
							return
						}
						local[key] = v
					case r < 85:
						v, ok, err := s.GetE(key)
						if err != nil {
							errs <- err
							return
						}
						ov, ook := local[key]
						if ok != ook || (ok && v != ov) {
							errs <- fmt.Errorf("worker %d: Get(%d) = %d,%v; oracle %d,%v", w, key, v, ok, ov, ook)
							return
						}
					default:
						found, err := s.DeleteE(key)
						if err != nil {
							errs <- err
							return
						}
						if _, ook := local[key]; found != ook {
							errs <- fmt.Errorf("worker %d: Delete(%d) = %v; oracle %v", w, key, found, ook)
							return
						}
						delete(local, key)
					}
				}
				if err := s.Flush(); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// The Stats opcode surfaces per-server load over TCP.
	loads := c.MemoryServerLoads()
	if len(loads) != 2 {
		t.Fatalf("MemoryServerLoads over tcp = %d servers, want 2", len(loads))
	}
	var totalOps int64
	for _, l := range loads {
		if l.Dead || l.Draining {
			t.Fatalf("unexpected load state %+v", l)
		}
		totalOps += l.InboundOps
	}
	if totalOps == 0 {
		t.Fatal("MemoryServerLoads over tcp reported zero inbound ops")
	}
	if skew := LoadSkew(loads); skew < 1 {
		t.Fatalf("LoadSkew over tcp = %v, want >= 1", skew)
	}

	// Sim-only surfaces must refuse cleanly on this cluster.
	if err := c.KillComputeServer(0); !errors.Is(err, ErrSimOnly) {
		t.Fatalf("KillComputeServer on tcp err = %v, want ErrSimOnly", err)
	}
	if _, err := c.AddMemoryServer(); !errors.Is(err, ErrSimOnly) {
		t.Fatalf("AddMemoryServer on tcp err = %v, want ErrSimOnly", err)
	}
	// Live migration is not one of them: it runs over any Backend.
	if _, err := tree.Rebalance(0); err != nil {
		t.Fatalf("Rebalance on tcp: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after Rebalance on tcp: %v", err)
	}
}

// TestClusterStatsSamePathBothFabrics pins the cluster-level getters that
// read the shared deployment state — AllocStats, ReplicationStats,
// ForwardingEntries, MemoryServerLoads — by running one deterministic
// scenario (bulk load, a put stream that splits, a memory-server kill where
// the config survives one) on the simulator and over real shermand
// processes: every figure that does not depend on a clock must agree, and
// ReplicationFactor echoes the configured value on both.
func TestClusterStatsSamePathBothFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	type snapshot struct {
		alloc      AllocStats
		rep        ReplicationStats
		forwarding int
		dead       []bool
	}
	for _, tc := range []struct {
		name       string
		numMS, rf  int
		kill       int // memory server to kill after the puts; 0 = none
		wantFactor int
	}{
		{"unreplicated", 2, 0, 0, 0},
		{"factor1", 2, 1, 0, 1},
		{"factor2-kill", 3, 2, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(transport string) snapshot {
				// The session id seeds its allocator's round-robin origin:
				// rewind it so both runs place chunks alike.
				sessionSeq.Store(0)
				c, err := NewCluster(ClusterConfig{
					MemoryServers: tc.numMS, ComputeServers: 1,
					Transport: transport, ReplicationFactor: tc.rf,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				tree, err := c.CreateTree(TreeOptions{NodeSize: 256})
				if err != nil {
					t.Fatal(err)
				}
				var kvs []KV
				for k := uint64(1); k <= 512; k++ {
					kvs = append(kvs, KV{Key: 2 * k, Value: k})
				}
				if err := tree.Bulkload(kvs); err != nil {
					t.Fatal(err)
				}
				s := openSession(t, tree, 0)
				for k := uint64(1); k <= 512; k++ {
					s.Put(2*k+1, k)
				}
				if tc.kill != 0 {
					if err := c.KillMemoryServer(tc.kill); err != nil {
						t.Fatal(err)
					}
					if v, ok := s.Get(2); !ok || v != 1 {
						t.Fatalf("%s: key 2 after failover = %d,%v", transport, v, ok)
					}
				}
				snap := snapshot{alloc: c.AllocStats(), rep: c.ReplicationStats(), forwarding: c.ForwardingEntries()}
				for _, l := range c.MemoryServerLoads() {
					snap.dead = append(snap.dead, l.Dead)
				}
				return snap
			}
			sim, tcp := run(TransportSim), run(TransportTCP)
			if !reflect.DeepEqual(sim, tcp) {
				t.Fatalf("the fabrics disagree:\n sim %+v\n tcp %+v", sim, tcp)
			}
			if sim.rep.ReplicationFactor != tc.wantFactor {
				t.Errorf("ReplicationFactor = %d, want the configured %d", sim.rep.ReplicationFactor, tc.wantFactor)
			}
			if sim.alloc.ChunkRPCs == 0 || sim.alloc.Nodes < 512/8 {
				t.Errorf("AllocStats = %+v, want chunk RPCs and at least the bulk-loaded nodes", sim.alloc)
			}
			if len(sim.dead) != tc.numMS {
				t.Fatalf("MemoryServerLoads has %d entries, want %d", len(sim.dead), tc.numMS)
			}
			for ms, dead := range sim.dead {
				if dead != (tc.kill != 0 && ms == tc.kill) {
					t.Errorf("MemoryServerLoads[%d].Dead = %v", ms, dead)
				}
			}
			if tc.kill == 0 {
				if sim.rep.Failovers != 0 || sim.forwarding != 0 {
					t.Errorf("no death, yet Failovers = %d, ForwardingEntries = %d", sim.rep.Failovers, sim.forwarding)
				}
				return
			}
			if sim.rep.Failovers == 0 || int64(sim.forwarding) != sim.rep.Failovers || sim.rep.LostChunks != 0 {
				t.Errorf("after the kill: Failovers = %d, ForwardingEntries = %d, LostChunks = %d; want one forwarding entry per promoted chunk and nothing lost",
					sim.rep.Failovers, sim.forwarding, sim.rep.LostChunks)
			}
		})
	}
}

// TestRoundTripsPerOpPinned counts the protocol, deterministically: with a
// warm cache, updating an existing key costs exactly 2 round trips over TCP
// (the acquire doorbell: lock CAS + leaf READ; then write-back + release)
// and the published 3 on the simulator (CAS, READ, write-back + release —
// the virtual manager keeps Lock-then-read, DESIGN.md §4), a get exactly 1
// on both, and with CombineCommands off a TCP put is back to 4 separate
// verbs. A change that quietly re-serialises the acquire fails here, not
// only in the benchmark.
func TestRoundTripsPerOpPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	noCombine := &AdvancedOptions{TwoLevelVersions: true, OnChipLocks: true,
		LocalLockTables: true, WaitQueues: true, Handover: true}
	for _, tc := range []struct {
		name, transport string
		adv             *AdvancedOptions
		put, get        int64
	}{
		{"sim", TransportSim, nil, 3, 1},
		{"tcp", TransportTCP, nil, 2, 1},
		{"tcp-nocombine", TransportTCP, noCombine, 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1, Transport: tc.transport})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close) // after testTree's Validate
			tree := testTree(t, c, TreeOptions{Advanced: tc.adv})
			var kvs []KV
			for k := uint64(1); k <= 4096; k++ {
				kvs = append(kvs, KV{Key: k, Value: k})
			}
			if err := tree.Bulkload(kvs); err != nil {
				t.Fatal(err)
			}
			s := openSession(t, tree, 0)
			for _, key := range []uint64{7, 2000, 4096} {
				s.Get(key) // warm the path to the key's leaf
				before := s.Stats().RoundTrips
				s.Put(key, key+1)
				afterPut := s.Stats().RoundTrips
				if v, ok := s.Get(key); !ok || v != key+1 {
					t.Fatalf("Get(%d) = %d, %v", key, v, ok)
				}
				afterGet := s.Stats().RoundTrips
				if put, get := afterPut-before, afterGet-afterPut; put != tc.put || get != tc.get {
					t.Errorf("key %d: put took %d round trips, get %d; want %d and %d", key, put, get, tc.put, tc.get)
				}
			}
			ls := tree.LockStats()
			if wantCarried := tc.transport == TransportTCP && tc.adv == nil; (ls.AcquireReads == 3) != wantCarried || ls.AcquireReadsWasted != 0 {
				t.Errorf("LockStats: AcquireReads = %d, AcquireReadsWasted = %d over 3 uncontended puts", ls.AcquireReads, ls.AcquireReadsWasted)
			}
		})
	}
}

// TestColdScanRoundTripsPinned counts a scan that misses level 1 on both
// fabrics: on a tree whose root sits at level 3 or higher, with a one-node
// cache budget held by another level-1 node, a scan whose rows lie under one
// level-1 node and whose leaves share one memory server costs exactly 2
// round trips — the validated level-1 read, then one parallel read of every
// leaf it steers to.
func TestColdScanRoundTripsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	for _, transport := range []string{TransportSim, TransportTCP} {
		t.Run(transport, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{MemoryServers: 1, ComputeServers: 1, Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close) // after testTree's Validate
			const nodeSize = 256
			tree := testTree(t, c, TreeOptions{NodeSize: nodeSize, CacheBytes: nodeSize})
			var kvs []KV
			for k := uint64(1); k <= 4096; k++ {
				kvs = append(kvs, KV{Key: k, Value: k})
			}
			if err := tree.Bulkload(kvs); err != nil {
				t.Fatal(err)
			}
			if h := tree.Stats().Height; h < 4 {
				t.Fatalf("tree height %d, want the root at level 3 or higher", h)
			}
			s := openSession(t, tree, 0)
			// Warm the pinned top on the path to key 1 and fill the one
			// budgeted slot with another level-1 node under the same
			// level-2 node.
			s.Get(500)
			before := s.Stats().RoundTrips
			rows := s.Scan(1, 20) // three leaves under the leftmost level-1 node
			if len(rows) != 20 || rows[0].Key != 1 || rows[19].Key != 20 {
				t.Fatalf("Scan(1, 20) = %d rows %v", len(rows), rows)
			}
			if rt := s.Stats().RoundTrips - before; rt != 2 {
				t.Errorf("cold scan took %d round trips, want 2", rt)
			}
		})
	}
}

// TestAcquireDoorbellUnderContention drives the losing path of the acquire
// doorbell for real: two depth-8 sessions on two compute servers put
// disjoint keys that interleave through the same handful of leaves for two
// seconds, so lock CASes lose across compute servers while the other side
// is mid-write-back. Every acked value must be readable afterwards and the
// tree must validate (testTree).
func TestAcquireDoorbellUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 2, Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close) // after testTree's Validate
	tree := testTree(t, c, TreeOptions{})
	const keys = 128 // a handful of leaves; worker w owns the keys ≡ w mod 2
	var kvs []KV
	for k := uint64(1); k <= keys; k++ {
		kvs = append(kvs, KV{Key: k, Value: 1})
	}
	if err := tree.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}

	acked := [2]map[uint64]uint64{{}, {}}
	deadline := time.Now().Add(2 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := openSession(t, tree, w, PipelineDepth(8))
			rng := rand.New(rand.NewSource(int64(w)))
			for seq := uint64(2); time.Now().Before(deadline); seq++ {
				// A window of puts in flight, all acked by the Flush.
				for i := 0; i < 32; i++ {
					key := uint64(rng.Intn(keys/2))*2 + uint64(w) + 1
					s.Submit(PutOp(key, seq))
					acked[w][key] = seq
				}
				s.check(s.Flush())
			}
		}()
	}
	wg.Wait()

	s := openSession(t, tree, 0)
	for w := range acked {
		for key, want := range acked[w] {
			if v, ok := s.Get(key); !ok || v != want {
				t.Fatalf("key %d = %d, %v after the run; last acked value %d", key, v, ok, want)
			}
		}
	}
	ls := tree.LockStats()
	if ls.GlobalRetries == 0 || ls.AcquireReadsWasted == 0 {
		t.Fatalf("GlobalRetries = %d, AcquireReadsWasted = %d: the losing path never ran", ls.GlobalRetries, ls.AcquireReadsWasted)
	}
	if ls.AcquireReads <= ls.AcquireReadsWasted {
		t.Fatalf("AcquireReads = %d, AcquireReadsWasted = %d: no acquisition was carried by a winning CAS", ls.AcquireReads, ls.AcquireReadsWasted)
	}
	t.Logf("acquisitions %d, handovers %d, carried %d, wasted %d, global retries %d",
		ls.Acquisitions, ls.Handovers, ls.AcquireReads, ls.AcquireReadsWasted, ls.GlobalRetries)
}
