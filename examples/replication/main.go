// Replication: run a factor-2 cluster, kill a memory server mid-workload,
// watch every acknowledged write survive through the promoted replicas,
// then bring a replacement in and repair redundancy online.
//
// With ClusterConfig.ReplicationFactor set, every 8 MB data chunk keeps
// copies on distinct memory servers (DESIGN.md §12). Writes mirror onto the
// replicas over detached doorbells — the primary commit path pays nothing —
// and a server death promotes each of its chunks to its freshest complete
// replica before the kill even returns: zero lost acked writes, no dark
// window. Tree.ReReplicate then rebuilds the missing copies in the
// background, hottest chunks first, onto the coldest eligible server.
package main

import (
	"fmt"
	"log"

	"sherman"
)

func main() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:     3,
		ComputeServers:    2,
		MaxMemoryServers:  4, // room for the replacement server
		ReplicationFactor: 2, // every chunk: primary + one replica
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := cluster.CreateTree(sherman.DefaultTreeOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Bulkload stripes chunks across all three servers, each registered
	// with a replica on a different server before its first write.
	const n = 100_000
	kvs := make([]sherman.KV, n)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}
	rs := cluster.ReplicationStats()
	fmt.Printf("factor %d: %d chunks registered, %d under-replicated\n",
		rs.ReplicationFactor, rs.RegisteredChunks, rs.UnderReplicated)

	// A session acknowledges writes; each one was mirrored to its chunk's
	// replica before the primary commit doorbell.
	s, err := tree.SessionAt(0)
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		if err := s.PutE(k, k*1000); err != nil {
			log.Fatal(err)
		}
	}
	st := s.Stats()
	fmt.Printf("1000 puts mirrored as %d replica writes, max lag %.1f us virtual\n",
		st.ReplicaWrites, float64(st.ReplicaLagMaxNS)/1000)

	// Kill server 1. The failover is synchronous: by the time the call
	// returns, every chunk it hosted has been promoted to its replica and
	// the forwarding map redirects readers — no recovery step needed to
	// keep serving.
	if err := cluster.KillMemoryServer(1); err != nil {
		log.Fatal(err)
	}
	rs = cluster.ReplicationStats()
	fmt.Printf("killed MS 1: %d chunks failed over, %d replicas dropped, %d chunks lost\n",
		rs.Failovers, rs.DroppedReplicas, rs.LostChunks)
	if rs.LostChunks != 0 {
		log.Fatal("replication factor 2 must not lose chunks to one death")
	}

	// Every acked write reads back through the promoted replicas, and the
	// session keeps writing — new mirrors target the survivors.
	for k := uint64(1); k <= 1000; k++ {
		v, ok, err := s.GetE(k)
		if err != nil || !ok || v != k*1000 {
			log.Fatalf("acked write lost: key %d = (%d,%v,%v)", k, v, ok, err)
		}
	}
	fmt.Println("all 1000 acked writes survived the death")
	if err := s.PutE(500, 42); err != nil {
		log.Fatal(err)
	}
	if v, _, _ := s.GetE(500); v != 42 {
		log.Fatal("post-failover write misread")
	}

	// The survivors are now the only copy of the failed-over chunks. Bring
	// a replacement server in and repair redundancy online — each sweep
	// backfills a bounded batch of the hottest under-replicated chunks
	// onto the coldest eligible server, safe under concurrent writes.
	if _, err := cluster.AddMemoryServer(); err != nil {
		log.Fatal(err)
	}
	var repaired, slots int
	var virtualNS int64
	for cluster.ReplicationStats().UnderReplicated > 0 {
		st, err := tree.ReReplicate(0)
		if err != nil {
			log.Fatal(err)
		}
		repaired += st.ChunksRepaired
		slots += st.SlotsCopied
		virtualNS += st.VirtualNS
	}
	fmt.Printf("re-replicated %d chunks (%d slots) in %.1f ms virtual\n",
		repaired, slots, float64(virtualNS)/1e6)

	rs = cluster.ReplicationStats()
	fmt.Printf("steady again: %d chunks registered, %d under-replicated, %d promotions total\n",
		rs.RegisteredChunks, rs.UnderReplicated, rs.Promotions)
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("tree validates: full redundancy restored")
}
