// Telemetry warehouse: a data-warehousing-style workload (§3.1 cites
// write-intensive warehousing systems [64]) mixing a continuous ingest
// stream with concurrent range analytics.
//
// Devices report time-stamped metrics; each report is an insert keyed by
// (device, timestamp) packed into a uint64. Dashboards concurrently scan
// recent windows per device. The example shows Sherman's range queries
// reading consistent leaves while half the threads insert, and how scans
// fetch several leaves per round trip via parallel RDMA_READs.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"sherman"
)

const (
	devices       = 64
	reportsPerDev = 1_000 // bulkloaded history per device
	ingestors     = 16
	dashboards    = 8
	ingestOps     = 500 // inserts per ingestor
	scanOps       = 100 // scans per dashboard
	scanWindow    = 50  // readings per scan
)

// key packs (device, sequence) so each device's readings are contiguous —
// range scans over one device never cross into another's keys.
func key(device, seq uint64) uint64 { return device<<32 | (seq + 1) }

func main() {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:  4,
		ComputeServers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := cluster.CreateTree(sherman.DefaultTreeOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Bulkload each device's reporting history.
	var kvs []sherman.KV
	for d := uint64(0); d < devices; d++ {
		for s := uint64(0); s < reportsPerDev; s++ {
			kvs = append(kvs, sherman.KV{Key: key(d, s), Value: reading(d, s)})
		}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bulkloaded %d readings from %d devices\n", len(kvs), devices)

	// Per-device ingest cursors, claimed atomically so concurrent ingestors
	// never collide on a sequence number.
	cursors := make([]atomic.Uint64, devices)
	for d := range cursors {
		cursors[d].Store(reportsPerDev)
	}

	var wg sync.WaitGroup
	var scanned, inserted atomic.Int64

	// Ingest stream: each ingestor appends fresh readings for random devices.
	for w := 0; w < ingestors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := tree.SessionAt(w % cluster.ComputeServers())
			if err != nil {
				log.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(w)+1, 0xabcdef))
			for i := 0; i < ingestOps; i++ {
				d := rng.Uint64N(devices)
				seq := cursors[d].Add(1) - 1
				if err := s.PutE(key(d, seq), reading(d, seq)); err != nil {
					log.Fatal(err)
				}
				inserted.Add(1)
			}
		}(w)
	}

	// Dashboards: scan the most recent window of a random device and verify
	// every returned reading decodes to the value its key implies.
	for w := 0; w < dashboards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := tree.SessionAt(w % cluster.ComputeServers())
			if err != nil {
				log.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(uint64(w)+100, 0x123456))
			for i := 0; i < scanOps; i++ {
				d := rng.Uint64N(devices)
				head := cursors[d].Load()
				start := uint64(0)
				if head > scanWindow {
					start = head - scanWindow
				}
				rows, err := s.ScanE(key(d, start), scanWindow)
				if err != nil {
					log.Fatal(err)
				}
				for _, kv := range rows {
					if kv.Key>>32 != d {
						break // ran past this device's key range
					}
					seq := kv.Key&0xffffffff - 1
					if kv.Value != reading(d, seq) {
						log.Fatalf("device %d seq %d: got %d want %d",
							d, seq, kv.Value, reading(d, seq))
					}
					scanned.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	if err := tree.Validate(); err != nil {
		log.Fatalf("tree invariants violated: %v", err)
	}

	fmt.Printf("ingested %d new readings while dashboards verified %d scanned rows\n",
		inserted.Load(), scanned.Load())
	cs := tree.CacheStats(0)
	fmt.Printf("index cache on CS0: %d/%d entries (+%d pinned top), %.1f%% hit ratio, %d evictions, %d invalidations\n",
		cs.Entries, cs.Capacity, cs.PinnedEntries,
		100*float64(cs.Hits)/float64(max64(cs.Hits+cs.Misses, 1)),
		cs.Evictions, cs.Invalidations)
	fmt.Println("every scanned row matched its expected value: leaf-level consistency held under concurrent ingest")
}

// reading derives the deterministic metric value of (device, seq), so
// dashboards can verify what they scan.
func reading(d, s uint64) uint64 {
	v := (d<<40 ^ s) * 0x9e3779b97f4a7c15
	if v == 0 {
		v = 1
	}
	return v
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
