// Maintenance: inspect a tree's structure and reclaim delete-driven
// fragmentation with offline compaction.
//
// Sherman, like the paper's released code, never merges leaves on the hot
// path — deletes clear entries in place (§4.4), so a delete-heavy tenant
// slowly dilutes leaf occupancy. Tree.Stats surfaces that; Tree.Compact
// rebuilds the tree at the bulkload fill factor, freeing old nodes through
// the §4.2.4 free bit.
package main

import (
	"fmt"
	"log"

	"sherman"
)

func main() {
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

	// A session-lifecycle-style workload: bulk ingest, then expire 90%.
	const n = 200_000
	kvs := make([]sherman.KV, n)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}
	s, err := tree.SessionAt(0)
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= n; k++ {
		if k%10 != 0 {
			if _, err := s.DeleteE(k); err != nil {
				log.Fatal(err)
			}
		}
	}

	report := func(when string) sherman.TreeStats {
		st := tree.Stats()
		fmt.Printf("%-16s height=%d nodes=%d entries=%d meanFill=%4.1f%% minFill=%4.1f%% footprint=%5.1f MB\n",
			when, st.Height, st.InternalNodes+st.LeafNodes, st.Entries,
			st.LeafFill*100, st.MinLeafFill*100, float64(st.BytesUsed)/(1<<20))
		return st
	}

	before := report("fragmented:")
	res := tree.Compact()
	after := report("compacted:")

	fmt.Printf("\ncompact kept %d entries, %d -> %d nodes, reclaimed %.1f MB\n",
		res.EntriesKept, res.NodesBefore, res.NodesAfter,
		float64(res.BytesReclaimed)/(1<<20))

	if err := tree.Validate(); err != nil {
		log.Fatalf("invariants violated after compaction: %v", err)
	}
	// Fresh sessions read through the rebuilt tree.
	s2, err := tree.SessionAt(1)
	if err != nil {
		log.Fatal(err)
	}
	if v, ok, err := s2.GetE(10); err != nil || !ok || v != 9 {
		log.Fatalf("survivor lookup failed: (%d,%v,%v)", v, ok, err)
	}
	fmt.Printf("fill recovered from %.1f%% to %.1f%%; survivors intact\n",
		before.LeafFill*100, after.LeafFill*100)
}
