package sherman

import (
	"errors"
	"sync"
	"testing"

	"sherman/internal/testutil"
)

// elasticTree builds a 1-MS cluster with a bulkloaded tree — the most
// skewed possible placement, everything behind one NIC. The tree rides the
// shared harness's Validate-on-exit via testTree.
func elasticTree(t *testing.T, nodeSize int) (*Cluster, *Tree) {
	t.Helper()
	c, err := NewCluster(ClusterConfig{MemoryServers: 1, ComputeServers: 2, MaxMemoryServers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c, loadTree(t, c, nodeSize)
}

// loadTree creates a tree on c and bulkloads keys 1..2000 with value
// (k-1)*3+7.
func loadTree(t *testing.T, c *Cluster, nodeSize int) *Tree {
	t.Helper()
	tr := testTree(t, c, TreeOptions{NodeSize: nodeSize})
	kvs := make([]KV, 2000)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(i)*3 + 7}
	}
	if err := tr.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAddMemoryServerAndRebalance(t *testing.T) {
	c, tr := elasticTree(t, 256)
	s := openSession(t, tr, 0)

	// Generate load so the picker has a signal.
	for k := uint64(1); k <= 2000; k += 3 {
		s.Get(k)
	}
	ms, err := c.AddMemoryServer()
	if err != nil {
		t.Fatal(err)
	}
	if ms != 1 || c.MemoryServers() != 2 {
		t.Fatalf("AddMemoryServer = %d, MemoryServers = %d; want 1, 2", ms, c.MemoryServers())
	}

	st, err := tr.Rebalance(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksMoved == 0 || st.NodesMoved == 0 {
		t.Fatalf("rebalance moved nothing: %+v", st)
	}
	if st.Repoints == 0 {
		t.Fatalf("rebalance repointed nothing: %+v", st)
	}
	if st.VirtualNS <= 0 {
		t.Fatalf("rebalance took %d virtual ns", st.VirtualNS)
	}

	// The tree must be fully intact through both sessions (old and fresh).
	for k := uint64(1); k <= 2000; k++ {
		if v, ok := s.Get(k); !ok || v != (k-1)*3+7 {
			t.Fatalf("post-rebalance Get(%d) = (%d,%v)", k, v, ok)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after rebalance: %v", err)
	}

	// New writes spread across both servers now.
	loads0 := c.MemoryServerLoads()
	if len(loads0) != 2 {
		t.Fatalf("loads = %+v", loads0)
	}
	s2 := openSession(t, tr, 1)
	for k := uint64(5000); k < 7000; k++ {
		s2.Put(k, k)
	}
	loads := c.MemoryServerLoads()
	if loads[1].InboundOps-loads0[1].InboundOps == 0 {
		t.Fatal("new server took no traffic after rebalance")
	}
}

func TestDrainMemoryServer(t *testing.T) {
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		c, _ := fabricCluster(t, fab, 2, 2, 0)
		tr := loadTree(t, c, 256)
		s := openSession(t, tr, 0)
		s.Get(1)

		st, err := c.DrainMemoryServer(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.NodesMoved == 0 {
			t.Fatalf("drain moved nothing: %+v", st)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Validate after drain: %v", err)
		}
		for k := uint64(1); k <= 2000; k++ {
			if v, ok := s.Get(k); !ok || v != (k-1)*3+7 {
				t.Fatalf("post-drain Get(%d) = (%d,%v)", k, v, ok)
			}
		}
		checkDrainedQuiet(t, c, tr, s)

		// Draining the last live server must fail.
		if _, err := c.DrainMemoryServer(0, 0); err == nil {
			t.Fatal("draining the last memory server succeeded")
		}
	})
}

// checkDrainedQuiet puts 2000 fresh keys through s after memory server 1
// was drained: the server must still be marked draining, and its inbound
// load must barely grow. Stale sibling pointers may still touch it, but the
// write path must not allocate there.
func checkDrainedQuiet(t *testing.T, c *Cluster, tr *Tree, s testSession) {
	t.Helper()
	before := c.MemoryServerLoads()[1].InboundOps
	for k := uint64(10_000); k < 12_000; k++ {
		s.Put(k, k)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	loads := c.MemoryServerLoads()
	if !loads[1].Draining {
		t.Fatal("drained server not marked draining")
	}
	if grew := loads[1].InboundOps - before; grew > 500 {
		t.Fatalf("drained server still serving heavy traffic: %d inbound ops", grew)
	}
}

// TestDrainLastMemoryServerRefused: the last usable memory server cannot be
// drained, whether or not a tree exists yet, and a refused drain leaves the
// server usable.
func TestDrainLastMemoryServerRefused(t *testing.T) {
	c, err := NewCluster(ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, when := range []string{"no tree", "with a tree"} {
		if when == "with a tree" {
			loadTree(t, c, 0)
		}
		if _, err := c.DrainMemoryServer(0, 0); err == nil {
			t.Fatalf("%s: draining the last memory server succeeded", when)
		}
		if c.MemoryServerLoads()[0].Draining {
			t.Fatalf("%s: the refused drain marked the server draining", when)
		}
	}
}

// churnWhile runs four seeded workers at depths 1–4 on disjoint key ranges
// of tr, runs migrate once worker 0 is 100 ops in, and then checks every
// worker's keys against its own model and a sample of the bulkloaded keys.
func churnWhile(t *testing.T, c *Cluster, tr *Tree, seed uint64, migrate func() error) {
	t.Helper()
	const workers = 4
	refs := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	startMigr := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := tr.SessionAt(w%c.ComputeServers(), PipelineDepth(1+w%4))
			if err != nil {
				t.Error(err)
				return
			}
			rng := testutil.RNG(seed<<8 | uint64(w))
			ref := make(map[uint64]uint64)
			base := uint64(w)*100_000 + 10_000
			for i := uint64(0); i < 600; i++ {
				if w == 0 && i == 100 {
					close(startMigr)
				}
				k := base + rng.Uint64N(300)
				switch rng.Uint64N(7) {
				case 0:
					s.Submit(DeleteOp(k))
					delete(ref, k)
				case 1:
					r := s.Submit(GetOp(k)).Wait()
					want, ok := ref[k]
					if r.Found != ok || (ok && r.Value != want) {
						t.Errorf("worker %d: Get(%d) = (%d,%v), want (%d,%v)", w, k, r.Value, r.Found, want, ok)
						return
					}
				default:
					v := rng.Uint64() | 1
					s.Submit(PutOp(k, v))
					ref[k] = v
				}
			}
			if err := s.Flush(); err != nil {
				t.Error(err)
			}
			refs[w] = ref
		}(w)
	}

	<-startMigr
	if err := migrate(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	s := openSession(t, tr, 0)
	for w, ref := range refs {
		for k, v := range ref {
			if got, ok := s.Get(k); !ok || got != v {
				t.Fatalf("worker %d key %d = (%d,%v), want (%d,true)", w, k, got, ok, v)
			}
		}
	}
	for k := uint64(1); k <= 2000; k += 37 {
		if v, ok := s.Get(k); !ok || v != (k-1)*3+7 {
			t.Fatalf("bulk key %d = (%d,%v)", k, v, ok)
		}
	}
}

// TestRebalanceDuringConcurrentSessions migrates while writers and readers
// churn — the live half of "usable while sessions run" — with the op mix
// drawn from the harness's seeded streams.
func TestRebalanceDuringConcurrentSessions(t *testing.T) {
	testutil.RunSeeds(t, 2, func(t *testing.T, seed uint64) {
		c, tr := elasticTree(t, 256)
		churnWhile(t, c, tr, seed, func() error {
			if _, err := c.AddMemoryServer(); err != nil {
				return err
			}
			_, err := tr.Rebalance(1)
			return err
		})
	})
}

// TestTCPDrainDuringConcurrentSessions drains a real shermand process while
// sessions at depths 1–4 churn over both: every key matches its worker's
// model, the tree validates, the moved chunks left forwarding entries, and
// later puts keep off the drained server.
func TestTCPDrainDuringConcurrentSessions(t *testing.T) {
	c, _ := fabricCluster(t, testutil.TCP, 2, 2, 0)
	tr := loadTree(t, c, 256)
	churnWhile(t, c, tr, 1, func() error {
		_, err := c.DrainMemoryServer(1, 1)
		return err
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after drain: %v", err)
	}
	if n := c.ForwardingEntries(); n < 1 {
		t.Fatalf("ForwardingEntries = %d after a drain, want >= 1", n)
	}
	checkDrainedQuiet(t, c, tr, openSession(t, tr, 0))
}

func TestElasticValidation(t *testing.T) {
	c, tr := elasticTree(t, 256)
	if _, err := tr.Rebalance(-1); !errors.Is(err, ErrBadComputeServer) {
		t.Fatalf("Rebalance(-1): %v", err)
	}
	if _, err := c.DrainMemoryServer(9, 0); err == nil {
		t.Fatal("DrainMemoryServer(9) succeeded")
	}
	// Capacity cap: 4 total were declared.
	for i := 0; i < 3; i++ {
		if _, err := c.AddMemoryServer(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddMemoryServer(); err == nil {
		t.Fatal("AddMemoryServer beyond MaxMemoryServers succeeded")
	}
	if _, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1, MaxMemoryServers: 1}); err == nil {
		t.Fatal("MaxMemoryServers < MemoryServers accepted")
	}
}
