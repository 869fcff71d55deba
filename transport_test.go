package sherman

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sherman/internal/testutil"
)

// TestEMethods covers the error-returning synchronous API on both fabrics:
// the happy path at pipeline depths 1, 4 and 8 and the reserved-key
// rejection; then the post-crash ErrSessionDead contract that replaces the
// legacy methods' panics, and over TCP the clean ErrSimOnly refusal of
// admitting a memory server.
func TestEMethods(t *testing.T) {
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		c, _ := fabricCluster(t, fab, 2, 2, 0)
		tree := testTree(t, c, TreeOptions{})
		var s testSession
		for _, depth := range []int{1, 4, 8} {
			s = openSession(t, tree, depth%2, PipelineDepth(depth))
			k := uint64(depth) * 100 // each depth runs on its own keys
			if err := s.PutE(k+7, 70); err != nil {
				t.Fatalf("depth %d: PutE: %v", depth, err)
			}
			if v, ok, err := s.GetE(k + 7); err != nil || !ok || v != 70 {
				t.Fatalf("depth %d: GetE(%d) = %d, %v, %v", depth, k+7, v, ok, err)
			}
			if _, ok, err := s.GetE(k + 8); err != nil || ok {
				t.Fatalf("depth %d: GetE(%d) = present (err %v), want absent", depth, k+8, err)
			}
			if err := s.PutE(k+9, 90); err != nil {
				t.Fatal(err)
			}
			kvs, err := s.ScanE(k+1, 10)
			if err != nil || len(kvs) != 2 || kvs[0].Key != k+7 || kvs[1].Key != k+9 {
				t.Fatalf("depth %d: ScanE = %v, %v", depth, kvs, err)
			}
			if found, err := s.DeleteE(k + 7); err != nil || !found {
				t.Fatalf("depth %d: DeleteE(%d) = %v, %v", depth, k+7, found, err)
			}
			if found, err := s.DeleteE(k + 7); err != nil || found {
				t.Fatalf("depth %d: DeleteE(%d) again = %v, %v", depth, k+7, found, err)
			}
			if err := s.PutE(0, 1); !errors.Is(err, ErrReservedKey) {
				t.Fatalf("depth %d: PutE(0) err = %v, want ErrReservedKey", depth, err)
			}
			if _, err := s.DeleteE(0); !errors.Is(err, ErrReservedKey) {
				t.Fatalf("depth %d: DeleteE(0) err = %v, want ErrReservedKey", depth, err)
			}
		}

		if fab.Name != "sim" {
			if _, err := c.AddMemoryServer(); !errors.Is(err, ErrSimOnly) {
				t.Fatalf("AddMemoryServer on %s err = %v, want ErrSimOnly", fab.Name, err)
			}
		}
		// A crashed compute server turns every E-method into ErrSessionDead —
		// no panics. The last session (depth 8) runs on compute server 0.
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
	})
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
// warm cache, updating an existing key costs exactly 2 round trips on both
// fabrics (the acquire doorbell: lock CAS + leaf READ; then write-back +
// release), a get exactly 1, and with CombineCommands off a TCP put is back
// to 4 separate verbs. A change that quietly re-serialises the acquire fails
// here, not only in the benchmark.
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
		{"sim", TransportSim, nil, 2, 1},
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
			if wantCarried := tc.adv == nil; (ls.AcquireReads == 3) != wantCarried || ls.AcquireReadsWasted != 0 {
				t.Errorf("LockStats: AcquireReads = %d, AcquireReadsWasted = %d over 3 uncontended puts", ls.AcquireReads, ls.AcquireReadsWasted)
			}
		})
	}
}

// TestColdScanRoundTripsPinned counts a scan that misses level 1 on both
// fabrics: on a tree whose root sits at level 3 or higher, over two memory
// servers, with a one-node cache budget held by another level-1 node, a
// scan whose rows lie under one level-1 node costs exactly 2 round trips —
// the validated level-1 read, then one parallel read of every leaf it steers
// to, which Bulkload placed on one server — and the same scan again, steered
// by the now-cached level-1 copy, exactly 1.
func TestColdScanRoundTripsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	for _, transport := range []string{TransportSim, TransportTCP} {
		t.Run(transport, func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1, Transport: transport})
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
			for _, want := range []struct {
				name string
				rts  int64
			}{{"cold", 2}, {"warm", 1}} {
				before := s.Stats().RoundTrips
				rows := s.Scan(1, 20) // three leaves under the leftmost level-1 node
				if len(rows) != 20 || rows[0].Key != 1 || rows[19].Key != 20 {
					t.Fatalf("%s Scan(1, 20) = %d rows %v", want.name, len(rows), rows)
				}
				if rt := s.Stats().RoundTrips - before; rt != want.rts {
					t.Errorf("%s scan took %d round trips, want %d", want.name, rt, want.rts)
				}
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
