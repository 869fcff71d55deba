// Elastic: scale the memory side of a running cluster out and back in,
// with live chunk migration moving the data while sessions keep serving.
//
// The cluster starts with a single memory server carrying the whole tree
// — the most skewed placement possible. A second server joins online
// (AddMemoryServer), Tree.Rebalance migrates the hottest chunks onto it
// under the ordinary node locks (readers that land on a just-moved node
// chase a one-hop forwarding entry), and finally DrainMemoryServer
// empties the original server again. See DESIGN.md §9 for the protocol.
package main

import (
	"fmt"
	"log"

	"sherman"
)

func main() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:    1,
		ComputeServers:   2,
		MaxMemoryServers: 4, // scale-out capacity is declared at creation
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := cluster.CreateTree(sherman.DefaultTreeOptions())
	if err != nil {
		log.Fatal(err)
	}

	const n = 300_000
	kvs := make([]sherman.KV, n)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i) * 3}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}

	// Generate read traffic so the load picker has a signal.
	s, err := tree.SessionAt(0)
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= n; k += 7 {
		if _, _, err := s.GetE(k); err != nil {
			log.Fatal(err)
		}
	}
	report := func(when string) {
		fmt.Printf("%-18s", when)
		for _, l := range cluster.MemoryServerLoads() {
			state := ""
			if l.Draining {
				state = " (draining)"
			}
			fmt.Printf("  ms%d=%dk ops%s", l.MS, l.InboundOps/1000, state)
		}
		fmt.Printf("  skew=%.2f\n", sherman.LoadSkew(cluster.MemoryServerLoads()))
	}
	report("one server")

	// Scale out: a second memory server joins the running cluster.
	ms, err := cluster.AddMemoryServer()
	if err != nil {
		log.Fatal(err)
	}
	st, err := tree.Rebalance(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebalance: moved %d nodes in %d chunks to ms%d, repointed %d parents, %.2f ms virtual\n",
		st.NodesMoved, st.ChunksMoved, ms, st.Repoints, float64(st.VirtualNS)/1e6)

	// Fresh traffic now spreads; sessions were never interrupted.
	s2, err := tree.SessionAt(1)
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= n; k += 7 {
		if v, ok, err := s2.GetE(k); err != nil || !ok || v != (k-1)*3 {
			log.Fatalf("Get(%d) = (%d,%v,%v) after rebalance", k, v, ok, err)
		}
	}
	report("after rebalance")

	// Scale back in: drain the newcomer; the tree survives intact.
	if st, err = cluster.DrainMemoryServer(ms, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drain: moved %d nodes off ms%d\n", st.NodesMoved, ms)
	if err := tree.Validate(); err != nil {
		log.Fatal(err)
	}
	for k := uint64(1); k <= n; k += 997 {
		if v, ok, err := s2.GetE(k); err != nil || !ok || v != (k-1)*3 {
			log.Fatalf("Get(%d) = (%d,%v,%v) after drain", k, v, ok, err)
		}
	}
	report("after drain")
	fmt.Println("tree validates; sessions served throughout")
}
