// Quickstart: bring up a simulated disaggregated-memory cluster, create a
// Sherman tree, and exercise the basic API — puts, gets, deletes, scans —
// from a few concurrent client threads.
package main

import (
	"fmt"
	"log"
	"sync"

	"sherman"
)

func main() {
	// A small cluster: 2 memory servers hosting the tree, 2 compute servers
	// running our client threads (the paper's testbed uses 8 + 8).
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:  2,
		ComputeServers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	tree, err := cluster.CreateTree(sherman.DefaultTreeOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Bulkload a sorted initial dataset (keys 1..1000). Bulkload packs
	// leaves 80% full, like the paper's setup, leaving room for inserts.
	kvs := make([]sherman.KV, 1000)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i+1) * 10}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}

	// Single-session basics. Every call reports ErrSessionDead if the
	// session's compute server crashed, and writes report ErrReservedKey
	// for key 0; neither can happen here.
	s, err := tree.SessionAt(0)
	if err != nil {
		log.Fatal(err)
	}
	if v, ok, _ := s.GetE(42); ok {
		fmt.Printf("Get(42)        = %d\n", v)
	}
	if err := s.PutE(42, 4242); err != nil { // update in place
		log.Fatal(err)
	}
	if err := s.PutE(5000, 1); err != nil { // insert a new key
		log.Fatal(err)
	}
	if v, ok, _ := s.GetE(42); ok {
		fmt.Printf("after Put(42)  = %d\n", v)
	}
	if found, _ := s.DeleteE(7); found {
		fmt.Println("Delete(7)      = ok")
	}
	if _, ok, _ := s.GetE(7); !ok {
		fmt.Println("Get(7)         = not found (deleted)")
	}

	// Range scan: 5 pairs starting at key 40.
	fmt.Println("Scan(40, 5):")
	rows, err := s.ScanE(40, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range rows {
		fmt.Printf("  %4d -> %d\n", kv.Key, kv.Value)
	}

	// Iterating a longer range is easier with a Cursor, which refills
	// leaf-at-a-time under the hood instead of hand-rolled
	// resume-from-last-key loops.
	count, sum := 0, uint64(0)
	for cur := s.Cursor(900); ; {
		kv, ok := cur.Next()
		if !ok || kv.Key > 950 {
			break
		}
		count++
		sum += kv.Value
	}
	fmt.Printf("Cursor(900..950): %d rows, value sum %d\n", count, sum)

	// The async Op/Result API pipelines operations: a session opened with
	// PipelineDepth(4) keeps up to 4 operations in flight, overlapping
	// their round trips the way the paper's clients run multiple
	// coroutines per thread. Submit returns a Future; results are
	// observably equivalent to sequential execution (same-key operations
	// never reorder).
	ps, err := tree.SessionAt(0, sherman.PipelineDepth(4))
	if err != nil {
		log.Fatal(err)
	}
	var futures []*sherman.Future
	for i := uint64(0); i < 8; i++ {
		futures = append(futures, ps.Submit(sherman.PutOp(20_000+i, i*i)))
	}
	futures = append(futures, ps.Submit(sherman.GetOp(20_003))) // sees the put above
	for _, f := range futures {
		if r := f.Wait(); r.Err != nil {
			log.Fatal(r.Err)
		}
	}
	if r := futures[len(futures)-1].Wait(); r.Value != 9 {
		log.Fatalf("pipelined get = %d, want 9", r.Value)
	}
	ps.Flush()
	st := ps.Stats()
	fmt.Printf("pipelined session: %d ops, latency hiding %.1fx\n",
		st.PipelinedOps, st.LatencyHidingRatio)

	// Exec applies a mixed batch — puts, gets, deletes, scans in one call —
	// through the batch planner; an invalid op fails in its own slot.
	results := ps.Exec([]sherman.Op{
		sherman.PutOp(500, 1),
		sherman.GetOp(500),
		sherman.DeleteOp(501),
		sherman.PutOp(0, 1), // invalid: key 0 is reserved
	})
	fmt.Printf("Exec: get=%d deleted=%v err=%v\n",
		results[1].Value, results[2].Found, results[3].Err)

	// Concurrent sessions: one per goroutine, spread across both compute
	// servers. Sessions on the same tree coordinate through the index's own
	// RDMA locking, exactly as the paper's client threads do.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := tree.SessionAt(w % cluster.ComputeServers())
			if err != nil {
				log.Fatal(err)
			}
			base := uint64(10_000 + w*1000)
			for i := uint64(0); i < 200; i++ {
				if err := sess.PutE(base+i, i); err != nil {
					log.Fatal(err)
				}
			}
			for i := uint64(0); i < 200; i++ {
				if v, ok, err := sess.GetE(base + i); err != nil || !ok || v != i {
					log.Fatalf("worker %d: Get(%d) = %d,%v,%v; want %d", w, base+i, v, ok, err, i)
				}
			}
		}(w)
	}
	wg.Wait()

	if err := tree.Validate(); err != nil {
		log.Fatalf("tree invariants violated: %v", err)
	}

	ls := tree.LockStats()
	fmt.Printf("\nconcurrent phase ok: 1600 inserts + 1600 lookups across 8 sessions\n")
	fmt.Printf("lock stats: %d acquisitions, %d handovers, %d failed remote CAS\n",
		ls.Acquisitions, ls.Handovers, ls.GlobalRetries)
	fmt.Printf("memory in use across MSs: %d MB\n", cluster.MemoryUsage()>>20)
}
