package sherman_test

import (
	"fmt"
	"log"

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
