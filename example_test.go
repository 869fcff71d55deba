package sherman_test

import (
	"errors"
	"fmt"
	"log"
	"sync"

	"sherman"
)

// The basic lifecycle: a cluster, a tree, a session, point operations.
func Example() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:  2,
		ComputeServers: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := cluster.CreateTree(sherman.DefaultTreeOptions())
	if err != nil {
		log.Fatal(err)
	}

	s, err := tree.SessionAt(0)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.PutE(7, 700); err != nil {
		log.Fatal(err)
	}
	if v, ok, _ := s.GetE(7); ok {
		fmt.Println("got", v)
	}
	s.DeleteE(7)
	_, ok, _ := s.GetE(7)
	fmt.Println("after delete:", ok)
	// Output:
	// got 700
	// after delete: false
}

// Scans return key-ordered rows starting at the given key.
func ExampleSession_ScanE() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	s, _ := tree.SessionAt(0)
	for k := uint64(1); k <= 10; k++ {
		s.PutE(k, k*k)
	}
	rows, err := s.ScanE(4, 3)
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range rows {
		fmt.Println(kv.Key, kv.Value)
	}
	// Output:
	// 4 16
	// 5 25
	// 6 36
}

// Bulkload builds a packed tree from sorted pairs before sessions start.
func ExampleTree_Bulkload() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	kvs := []sherman.KV{{Key: 10, Value: 1}, {Key: 20, Value: 2}, {Key: 30, Value: 3}}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}
	s, _ := tree.SessionAt(0)
	v, _, _ := s.GetE(20)
	fmt.Println(v)
	// Output: 2
}

// The FG+ baseline runs on the same API: only the options differ.
func ExampleFGPlusTreeOptions() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	tree, _ := cluster.CreateTree(sherman.FGPlusTreeOptions())
	s, _ := tree.SessionAt(0)
	s.PutE(1, 100)
	v, _, _ := s.GetE(1)
	fmt.Println(v)
	// Output: 100
}

// Advanced options enable each of Sherman's techniques individually, which
// is how the paper's ablation studies are built.
func ExampleAdvancedOptions() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	// FG's layout plus command combination only — the paper's "+Combine"
	// ablation step.
	tree, err := cluster.CreateTree(sherman.TreeOptions{
		Advanced: &sherman.AdvancedOptions{CombineCommands: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	s, _ := tree.SessionAt(0)
	s.PutE(5, 50)
	v, _, _ := s.GetE(5)
	fmt.Println(v)
	// Output: 50
}

// Stats and Compact support offline maintenance of delete-heavy trees.
func ExampleTree_Compact() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	s, _ := tree.SessionAt(0)
	for k := uint64(1); k <= 2000; k++ {
		s.PutE(k, k)
	}
	for k := uint64(1); k <= 2000; k++ {
		if k%10 != 0 {
			s.DeleteE(k)
		}
	}
	res := tree.Compact()
	fmt.Println("kept", res.EntriesKept, "shrunk:", res.NodesAfter < res.NodesBefore)
	// Output: kept 200 shrunk: true
}

// A Cursor iterates a range leaf by leaf, refilling as it goes, instead of
// a loop of ScanE calls resumed from the last key.
func ExampleSession_Cursor() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	kvs := make([]sherman.KV, 1000)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i+1) * 10}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}
	s, _ := tree.SessionAt(0)
	count, sum := 0, uint64(0)
	cur := s.Cursor(900)
	for kv, ok := cur.Next(); ok && kv.Key <= 950; kv, ok = cur.Next() {
		count++
		sum += kv.Value
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("900..950: %d rows, value sum %d\n", count, sum)
	// Output: 900..950: 51 rows, value sum 471750
}

// A session opened with PipelineDepth(n) keeps up to n operations in flight,
// overlapping their round trips the way the paper's clients run several
// coroutines per thread. Results are those of sequential execution: the
// get sees the put before it, because operations on one key never reorder.
func ExampleSession_Submit() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 2, ComputeServers: 1})
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	s, err := tree.SessionAt(0, sherman.PipelineDepth(4))
	if err != nil {
		log.Fatal(err)
	}
	var futures []*sherman.Future
	for i := uint64(0); i < 8; i++ {
		futures = append(futures, s.Submit(sherman.PutOp(20_000+i, i*i)))
	}
	get := s.Submit(sherman.GetOp(20_003))
	for _, f := range futures {
		if r := f.Wait(); r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	fmt.Println("pipelined get:", get.Wait().Value)
	if err := s.Flush(); err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Println("pipelined ops:", st.PipelinedOps, "round trips overlapped:", st.LatencyHidingRatio > 1)
	// Output:
	// pipelined get: 9
	// pipelined ops: 9 round trips overlapped: true
}

// Exec applies a mixed batch in one call through the batch planner; an
// invalid op fails in its own slot and the others still apply.
func ExampleSession_Exec() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 1, ComputeServers: 1})
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	s, _ := tree.SessionAt(0)
	s.PutE(501, 5)
	results := s.Exec([]sherman.Op{
		sherman.PutOp(500, 1),
		sherman.GetOp(500),
		sherman.DeleteOp(501),
		sherman.PutOp(0, 1), // key 0 is reserved
	})
	fmt.Printf("get=%d deleted=%v err=%v\n", results[1].Value, results[2].Found, results[3].Err)
	// Output: get=1 deleted=true err=sherman: key 0 is reserved
}

// Open one session per goroutine. Sessions on one tree, on any compute
// server, coordinate through the index's own RDMA locks, as the paper's
// client threads do.
func ExampleTree_SessionAt() {
	cluster, _ := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 2, ComputeServers: 2})
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := tree.SessionAt(w % cluster.ComputeServers())
			if err != nil {
				log.Fatal(err)
			}
			base := uint64(10_000 + w*1000)
			for i := uint64(0); i < 200; i++ {
				if err := s.PutE(base+i, i); err != nil {
					log.Fatal(err)
				}
			}
			for i := uint64(0); i < 200; i++ {
				if v, ok, err := s.GetE(base + i); err != nil || !ok || v != i {
					log.Fatalf("worker %d: Get(%d) = (%d,%v,%v), want %d", w, base+i, v, ok, err, i)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("8 sessions: 1600 puts read back, tree validates")
	// Output: 8 sessions: 1600 puts read back, tree validates
}

// A compute server is the unit of failure: no memory-server CPU is on the
// data path, so a crash leaves behind only held locks (reclaimed once the
// holder's lease expires, DESIGN.md §8), half-done splits (completed by
// Recover) and sessions that now report ErrSessionDead.
func ExampleCluster_ScheduleCrash() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 2, ComputeServers: 2})
	if err != nil {
		log.Fatal(err)
	}
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	kvs := make([]sherman.KV, 100_000)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}

	// A client on compute server 1 acknowledges some writes...
	doomed, _ := tree.SessionAt(1)
	for k := uint64(1); k <= 100; k++ {
		if err := doomed.PutE(k, k*1000); err != nil {
			log.Fatal(err)
		}
	}
	// ...then its server dies in the middle of the next write: a warm put
	// is two fabric operations, the acquire doorbell (lock CAS + leaf READ)
	// and then the commit doorbell, so a crash at the second lands with the
	// leaf's lock held and the write not applied.
	if err := cluster.ScheduleCrash(1, 2); err != nil {
		log.Fatal(err)
	}
	fmt.Println("dead session reports:", doomed.Submit(sherman.PutOp(50, 1)).Wait().Err)

	// Acked writes are durable, and a survivor's write to the same leaf
	// waits out the lease and reclaims the dead server's lock.
	surv, _ := tree.SessionAt(0)
	v, _, _ := surv.GetE(50)
	fmt.Println("acked write survived: key 50 =", v)
	if err := surv.PutE(50, 42); err != nil {
		log.Fatal(err)
	}
	ls := tree.LockStats()
	fmt.Printf("lease expiries: %d, reclaims: %d\n", ls.LeaseExpiries, ls.Reclaims)

	// Complete any split the dead client left half done, then validate.
	rs, err := tree.Recover(0)
	if err != nil {
		log.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d split repairs, tree validates\n", rs.SplitRepairs)

	// After a restart the old sessions stay dead, and new ones work.
	if err := cluster.RestartComputeServer(1); err != nil {
		log.Fatal(err)
	}
	_, _, err = doomed.GetE(7)
	fmt.Println("old session after restart:", errors.Is(err, sherman.ErrSessionDead))
	fresh, _ := tree.SessionAt(1)
	if err := fresh.PutE(7, 777); err != nil {
		log.Fatal(err)
	}
	v, _, _ = fresh.GetE(7)
	fmt.Println("restarted server serves: key 7 =", v)
	// Output:
	// dead session reports: sherman: session's compute server crashed
	// acked write survived: key 50 = 50000
	// lease expiries: 1, reclaims: 1
	// recovered: 0 split repairs, tree validates
	// old session after restart: true
	// restarted server serves: key 7 = 777
}

// With ReplicationFactor 2 every data chunk keeps a copy on a second memory
// server (DESIGN.md §12). A server's death promotes each of its chunks to
// its replica before KillMemoryServer returns, so no acked write is lost;
// ReReplicate then rebuilds the missing copies on a replacement server.
func ExampleCluster_KillMemoryServer() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:     3,
		ComputeServers:    1,
		MaxMemoryServers:  4, // room for the replacement server
		ReplicationFactor: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	kvs := make([]sherman.KV, 100_000)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}
	rs := cluster.ReplicationStats()
	fmt.Printf("factor %d: %d chunks, %d under-replicated\n",
		rs.ReplicationFactor, rs.RegisteredChunks, rs.UnderReplicated)

	// Each acked put was mirrored to its chunk's replica first.
	s, _ := tree.SessionAt(0)
	for k := uint64(1); k <= 1000; k++ {
		if err := s.PutE(k, k*1000); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("replica writes:", s.Stats().ReplicaWrites)

	if err := cluster.KillMemoryServer(1); err != nil {
		log.Fatal(err)
	}
	rs = cluster.ReplicationStats()
	fmt.Printf("killed ms1: %d chunks failed over, %d replicas dropped, %d chunks lost\n",
		rs.Failovers, rs.DroppedReplicas, rs.LostChunks)
	for k := uint64(1); k <= 1000; k++ {
		if v, ok, err := s.GetE(k); err != nil || !ok || v != k*1000 {
			log.Fatalf("acked write lost: key %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
	if err := s.PutE(500, 42); err != nil {
		log.Fatal(err)
	}
	if v, _, _ := s.GetE(500); v != 42 {
		log.Fatal("write after failover misread")
	}
	fmt.Println("all 1000 acked writes survived")

	// Repair redundancy online: each sweep copies a bounded batch of the
	// hottest under-replicated chunks onto the coldest eligible server.
	if _, err := cluster.AddMemoryServer(); err != nil {
		log.Fatal(err)
	}
	repaired := 0
	for cluster.ReplicationStats().UnderReplicated > 0 {
		st, err := tree.ReReplicate(0)
		if err != nil {
			log.Fatal(err)
		}
		repaired += st.ChunksRepaired
	}
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	rs = cluster.ReplicationStats()
	fmt.Printf("re-replicated %d chunks: %d registered, %d under-replicated, tree validates\n",
		repaired, rs.RegisteredChunks, rs.UnderReplicated)
	// Output:
	// factor 2: 4 chunks, 0 under-replicated
	// replica writes: 1000
	// killed ms1: 1 chunks failed over, 2 replicas dropped, 0 chunks lost
	// all 1000 acked writes survived
	// re-replicated 3 chunks: 4 registered, 0 under-replicated, tree validates
}

// A tree's memory side scales out and back in under an open session: a
// server joins with AddMemoryServer, Rebalance migrates the hottest chunks
// onto it under the ordinary node locks, and DrainMemoryServer empties it
// again (DESIGN.md §9).
func ExampleTree_Rebalance() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:    1,
		ComputeServers:   1,
		MaxMemoryServers: 2, // scale-out capacity is declared at creation
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, _ := cluster.CreateTree(sherman.DefaultTreeOptions())
	const n = 100_000
	kvs := make([]sherman.KV, n)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i) * 3}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}
	s, _ := tree.SessionAt(0)
	// readBack reads keys back, which is also the load signal the
	// rebalancer picks its chunks by.
	readBack := func(when string, stride uint64) {
		for k := uint64(1); k <= n; k += stride {
			if v, ok, err := s.GetE(k); err != nil || !ok || v != (k-1)*3 {
				log.Fatalf("%s: Get(%d) = (%d,%v,%v)", when, k, v, ok, err)
			}
		}
		fmt.Printf("%-16s skew=%.2f\n", when, sherman.LoadSkew(cluster.MemoryServerLoads()))
	}
	readBack("one server", 7)

	ms, err := cluster.AddMemoryServer()
	if err != nil {
		log.Fatal(err)
	}
	st, err := tree.Rebalance(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebalance: %d nodes in %d chunks to ms%d\n", st.NodesMoved, st.ChunksMoved, ms)
	readBack("after rebalance", 7)

	if st, err = cluster.DrainMemoryServer(ms, 0); err != nil {
		log.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drain: %d nodes off ms%d, tree validates\n", st.NodesMoved, ms)
	readBack("after drain", 997)
	// Output:
	// one server       skew=1.00
	// rebalance: 2322 nodes in 1 chunks to ms1
	// after rebalance  skew=1.04
	// drain: 2322 nodes off ms1, tree validates
	// after drain      skew=1.00
}
