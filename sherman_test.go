package sherman

import (
	"sync"
	"testing"

	"sherman/internal/cluster"
	"sherman/internal/testutil"
	"sherman/internal/transport/tcp"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// fabricCluster builds a Cluster on one fabric of testutil's axis, with
// numMS memory servers, numCS compute servers and replication factor rf.
// kill fails a memory server the fabric's way: KillMemoryServer refuses on
// TCP servers the cluster did not launch, and these are in-process.
func fabricCluster(t *testing.T, fab testutil.Fabric, numMS, numCS, rf int) (c *Cluster, kill func(ms int) error) {
	t.Helper()
	be, kill := fab.New(t, numMS, numCS, rf)
	switch be := be.(type) {
	case *cluster.Cluster:
		c = &Cluster{be: be, st: be.State, cl: be}
	case *tcp.Cluster:
		c = &Cluster{be: be, st: be.State, tc: be}
	default:
		t.Fatalf("fabric %s built an unknown backend %T", fab.Name, be)
	}
	return c, kill
}

// testTree creates a tree and registers Validate-on-exit, the public-API
// mirror of testutil.NewTree: a suite cannot pass while quietly corrupting
// the structure.
func testTree(t *testing.T, c *Cluster, opts TreeOptions) *Tree {
	t.Helper()
	tree, err := c.CreateTree(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if err := tree.Validate(); err != nil {
			t.Errorf("Validate on exit: %v", err)
		}
	})
	return tree
}

// testSession adds must-succeed forms of the synchronous helpers (and
// same-kind batches over Exec) to a Session, for tests whose subject is the
// tree rather than the error surface. A failure is reported with Errorf, so
// worker goroutines may use it too.
type testSession struct {
	*Session
	t testing.TB
}

func openSession(t testing.TB, tree *Tree, cs int, opts ...SessionOption) testSession {
	t.Helper()
	s, err := tree.SessionAt(cs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return testSession{s, t}
}

func (s testSession) check(err error) {
	s.t.Helper()
	if err != nil {
		s.t.Errorf("session op failed: %v", err)
	}
}

func (s testSession) Put(key, value uint64) {
	s.t.Helper()
	s.check(s.PutE(key, value))
}

func (s testSession) Get(key uint64) (uint64, bool) {
	s.t.Helper()
	v, ok, err := s.GetE(key)
	s.check(err)
	return v, ok
}

func (s testSession) Delete(key uint64) bool {
	s.t.Helper()
	found, err := s.DeleteE(key)
	s.check(err)
	return found
}

func (s testSession) Scan(from uint64, span int) []KV {
	s.t.Helper()
	kvs, err := s.ScanE(from, span)
	s.check(err)
	return kvs
}

// execAll runs one batch and checks every slot succeeded.
func (s testSession) execAll(ops []Op) []Result {
	s.t.Helper()
	res := s.Exec(ops)
	for _, r := range res {
		s.check(r.Err)
	}
	return res
}

func (s testSession) PutBatch(kvs []KV) {
	s.t.Helper()
	ops := make([]Op, len(kvs))
	for i, kv := range kvs {
		ops[i] = PutOp(kv.Key, kv.Value)
	}
	s.execAll(ops)
}

func (s testSession) GetBatch(keys []uint64) (values []uint64, found []bool) {
	s.t.Helper()
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = GetOp(k)
	}
	values, found = make([]uint64, len(keys)), make([]bool, len(keys))
	for i, r := range s.execAll(ops) {
		values[i], found[i] = r.Value, r.Found
	}
	return values, found
}

func (s testSession) DeleteBatch(keys []uint64) (found []bool) {
	s.t.Helper()
	ops := make([]Op, len(keys))
	for i, k := range keys {
		ops[i] = DeleteOp(k)
	}
	found = make([]bool, len(keys))
	for i, r := range s.execAll(ops) {
		found[i] = r.Found
	}
	return found
}

// gridOptions maps the shared harness matrix (testutil.Matrix) onto public
// TreeOptions: the TwoLevel cells run the full Sherman lock stack, the
// Checksum cells the FG-style baseline, so both lock-word formats ride
// along exactly as in the core-level grids.
func gridOptions() []TreeOptions {
	var out []TreeOptions
	for _, ax := range testutil.Matrix() {
		adv := &AdvancedOptions{TwoLevelVersions: ax.TwoLevel, CombineCommands: ax.Combine}
		if ax.TwoLevel {
			adv.OnChipLocks = true
			adv.LocalLockTables = true
			adv.WaitQueues = true
			adv.Handover = true
		}
		out = append(out, TreeOptions{NodeSize: testutil.SmallNodeSize, LocksPerMS: 1024, Advanced: adv})
	}
	return out
}

func TestNewClusterValidation(t *testing.T) {
	cases := []ClusterConfig{
		{},
		{MemoryServers: 1},
		{ComputeServers: 1},
		{MemoryServers: -1, ComputeServers: 1},
		{MemoryServers: 1 << 16, ComputeServers: 1},
	}
	for _, cfg := range cases {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("NewCluster(%+v) succeeded, want error", cfg)
		}
	}
}

func TestTreeOptionsValidation(t *testing.T) {
	c := testCluster(t)
	bad := []TreeOptions{
		{KeySize: 4},
		{BulkFill: 1.5},
		{Advanced: &AdvancedOptions{WaitQueues: true}},
		{Advanced: &AdvancedOptions{LocalLockTables: true, Handover: true}},
	}
	for _, opts := range bad {
		if _, err := c.CreateTree(opts); err == nil {
			t.Errorf("CreateTree(%+v) succeeded, want error", opts)
		}
	}
}

func TestPutGetDeleteScan(t *testing.T) {
	for _, engine := range []Engine{EngineSherman, EngineFGPlus} {
		t.Run(engine.String(), func(t *testing.T) {
			c := testCluster(t)
			tree := testTree(t, c, TreeOptions{Engine: engine})
			s := openSession(t, tree, 0)

			if _, ok := s.Get(1); ok {
				t.Fatal("Get on empty tree found a value")
			}
			for k := uint64(1); k <= 500; k++ {
				s.Put(k, k*3)
			}
			for k := uint64(1); k <= 500; k++ {
				if v, ok := s.Get(k); !ok || v != k*3 {
					t.Fatalf("Get(%d) = (%d,%v), want (%d,true)", k, v, ok, k*3)
				}
			}
			s.Put(42, 999) // update
			if v, _ := s.Get(42); v != 999 {
				t.Fatalf("updated Get(42) = %d, want 999", v)
			}
			if !s.Delete(42) {
				t.Fatal("Delete(42) = false")
			}
			if s.Delete(42) {
				t.Fatal("double Delete(42) = true")
			}
			if _, ok := s.Get(42); ok {
				t.Fatal("Get(42) after delete found a value")
			}

			kvs := s.Scan(40, 5)
			want := []uint64{40, 41, 43, 44, 45} // 42 deleted
			if len(kvs) != len(want) {
				t.Fatalf("Scan returned %d rows, want %d", len(kvs), len(want))
			}
			for i, kv := range kvs {
				if kv.Key != want[i] || kv.Value != want[i]*3 {
					t.Fatalf("Scan[%d] = %+v, want key %d", i, kv, want[i])
				}
			}
			if got := s.Scan(40, 0); got != nil {
				t.Fatalf("Scan span 0 = %v, want nil", got)
			}

		})
	}
}

func TestBulkloadValidation(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	if err := tree.Bulkload([]KV{{Key: 0, Value: 1}}); err == nil {
		t.Error("Bulkload accepted key 0")
	}
	if err := tree.Bulkload([]KV{{Key: 5, Value: 1}, {Key: 5, Value: 2}}); err == nil {
		t.Error("Bulkload accepted duplicate keys")
	}
	if err := tree.Bulkload([]KV{{Key: 5, Value: 1}, {Key: 3, Value: 2}}); err == nil {
		t.Error("Bulkload accepted unsorted keys")
	}
	if err := tree.Bulkload([]KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}}); err != nil {
		t.Errorf("valid Bulkload failed: %v", err)
	}
	s := openSession(t, tree, 0)
	if v, ok := s.Get(2); !ok || v != 20 {
		t.Errorf("Get(2) after bulkload = (%d,%v), want (20,true)", v, ok)
	}
}

// TestConcurrentSessionsAgainstReference runs concurrent random operations
// on disjoint key stripes — seeded through the shared harness, so a failure
// names the seed — and compares the final tree contents against a
// per-stripe reference map. Validate-on-exit rides on testTree.
func TestConcurrentSessionsAgainstReference(t *testing.T) {
	testutil.RunSeeds(t, 2, func(t *testing.T, seed uint64) {
		c := testCluster(t)
		tree := testTree(t, c, DefaultTreeOptions())

		const workers = 8
		const opsPerWorker = 400
		refs := make([]map[uint64]uint64, workers)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := openSession(t, tree, w%c.ComputeServers())
				ref := make(map[uint64]uint64)
				rng := testutil.RNG(seed<<8 | uint64(w))
				base := uint64(w)*100_000 + 1
				for i := 0; i < opsPerWorker; i++ {
					k := base + rng.Uint64N(200)
					switch rng.Uint64N(10) {
					case 0, 1: // delete
						s.Delete(k)
						delete(ref, k)
					default: // put
						v := rng.Uint64() | 1
						s.Put(k, v)
						ref[k] = v
					}
				}
				refs[w] = ref
			}(w)
		}
		wg.Wait()

		s := openSession(t, tree, 0)
		for w, ref := range refs {
			for k, v := range ref {
				got, ok := s.Get(k)
				if !ok || got != v {
					t.Fatalf("worker %d key %d: Get = (%d,%v), want (%d,true)", w, k, got, ok, v)
				}
			}
		}
	})
}

func TestStatsSurface(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	s := openSession(t, tree, 0)
	for k := uint64(1); k <= 100; k++ {
		s.Put(k, k)
	}
	for k := uint64(1); k <= 100; k++ {
		s.Get(k)
	}
	s.Scan(1, 10)
	s.Delete(50)

	st := s.Stats()
	if st.Inserts != 100 || st.Lookups != 100 || st.Scans != 1 || st.Deletes != 1 {
		t.Errorf("op counts = %+v", st)
	}
	if st.RoundTrips == 0 || st.WriteBytes == 0 {
		t.Errorf("verb counters empty: %+v", st)
	}
	if st.P50LatencyNS <= 0 || st.P99LatencyNS < st.P50LatencyNS {
		t.Errorf("latencies inconsistent: p50=%d p99=%d", st.P50LatencyNS, st.P99LatencyNS)
	}
	if s.VirtualNow() <= 0 {
		t.Error("virtual clock did not advance")
	}
	if s.ComputeServer() != 0 {
		t.Errorf("ComputeServer = %d, want 0", s.ComputeServer())
	}

	ls := tree.LockStats()
	// 100 puts + 1 delete, plus parent-node locks taken by leaf splits.
	if ls.Acquisitions < 101 {
		t.Errorf("lock acquisitions = %d, want >= 101", ls.Acquisitions)
	}
	if cs := tree.CacheStats(0); cs.Capacity <= 0 || cs.Levels <= 0 {
		t.Errorf("cache capacity/levels = %d/%d", cs.Capacity, cs.Levels)
	}
	if st.SpeculativeReads == 0 || st.SpeculativeReads < st.SpeculativeFails {
		t.Errorf("speculation counters inconsistent: reads=%d fails=%d",
			st.SpeculativeReads, st.SpeculativeFails)
	}
	as := c.AllocStats()
	if as.Nodes == 0 || as.ChunkRPCs == 0 {
		t.Errorf("alloc stats empty: %+v", as)
	}
	if c.MemoryUsage() == 0 {
		t.Error("memory usage zero after inserts")
	}
}

// TestAdvancedOptionsMatrix creates a tree for every consistent ablation
// combination and smoke-tests it.
func TestAdvancedOptionsMatrix(t *testing.T) {
	combos := []AdvancedOptions{
		{},
		{CombineCommands: true},
		{OnChipLocks: true},
		{TwoLevelVersions: true},
		{CombineCommands: true, OnChipLocks: true},
		{LocalLockTables: true},
		{LocalLockTables: true, WaitQueues: true},
		{LocalLockTables: true, WaitQueues: true, Handover: true},
		{TwoLevelVersions: true, CombineCommands: true, OnChipLocks: true,
			LocalLockTables: true, WaitQueues: true, Handover: true},
	}
	for _, adv := range combos {
		adv := adv
		c := testCluster(t)
		tree := testTree(t, c, TreeOptions{Advanced: &adv})
		s := openSession(t, tree, 0)
		for k := uint64(1); k <= 50; k++ {
			s.Put(k, k+7)
		}
		for k := uint64(1); k <= 50; k++ {
			if v, ok := s.Get(k); !ok || v != k+7 {
				t.Fatalf("%+v: Get(%d) = (%d,%v)", adv, k, v, ok)
			}
		}
	}
}

func TestKeySizeOption(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, TreeOptions{KeySize: 64, NodeSize: 4096})
	s := openSession(t, tree, 0)
	for k := uint64(1); k <= 200; k++ {
		s.Put(k, k*2)
	}
	for k := uint64(1); k <= 200; k++ {
		if v, ok := s.Get(k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = (%d,%v)", k, v, ok)
		}
	}
}

func TestFabricParamOverrides(t *testing.T) {
	c, err := NewCluster(ClusterConfig{
		MemoryServers:  1,
		ComputeServers: 1,
		Fabric: FabricParams{
			RTTNS:          5000,
			AtomicBuckets:  64,
			OnChipMemBytes: 128 << 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t, c, DefaultTreeOptions())
	s := openSession(t, tree, 0)
	s.Put(1, 2)
	if v, ok := s.Get(1); !ok || v != 2 {
		t.Fatalf("Get(1) = (%d,%v)", v, ok)
	}
	// A 5 us RTT means even one round trip exceeds 5000 virtual ns.
	if s.VirtualNow() < 5000 {
		t.Errorf("virtual clock %d too small for RTT override", s.VirtualNow())
	}
}

func TestStatsAndCompact(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	s := openSession(t, tree, 0)
	const n = 4000
	for k := uint64(1); k <= n; k++ {
		s.Put(k, k)
	}
	st := tree.Stats()
	if st.Entries != n || st.Height < 2 || st.LeafNodes == 0 {
		t.Fatalf("stats after inserts: %+v", st)
	}
	for k := uint64(1); k <= n; k++ {
		if k%8 != 0 {
			s.Delete(k)
		}
	}
	res := tree.Compact()
	if res.EntriesKept != n/8 || res.BytesReclaimed <= 0 || res.NodesAfter >= res.NodesBefore {
		t.Fatalf("compact: %+v", res)
	}
	// Sessions opened after Compact see exactly the survivors.
	s2 := openSession(t, tree, 1)
	for k := uint64(8); k <= n; k += 8 {
		if v, ok := s2.Get(k); !ok || v != k {
			t.Fatalf("survivor %d = (%d,%v)", k, v, ok)
		}
	}
	if _, ok := s2.Get(3); ok {
		t.Fatal("deleted key resurrected")
	}
	after := tree.Stats()
	if after.LeafFill <= st.LeafFill-0.2 {
		t.Fatalf("fill did not recover: %.2f -> %.2f", st.LeafFill, after.LeafFill)
	}
}
