// Ablation walkthrough: rebuild Figure 10's experiment interactively with
// the public API, adding Sherman's techniques one at a time on top of the
// FG+ baseline under a skewed write-intensive workload and printing how
// each one moves throughput and tail latency.
//
// This is the example to read when deciding which techniques your own
// index needs: TreeOptions.Advanced exposes exactly these switches.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"
	"sync"

	"sherman"
)

const (
	keys      = 100_000
	workers   = 64
	opsPerWkr = 300
	theta     = 0.99
)

type step struct {
	name string
	adv  sherman.AdvancedOptions
}

func main() {
	// Each step enables one more technique, in the paper's order
	// (Figure 10): FG+ -> +Combine -> +On-Chip -> +Hierarchical -> +2-Level.
	steps := []step{
		{"FG+", sherman.AdvancedOptions{}},
		{"+Combine", sherman.AdvancedOptions{
			CombineCommands: true}},
		{"+On-Chip", sherman.AdvancedOptions{
			CombineCommands: true, OnChipLocks: true}},
		{"+Hierarchical", sherman.AdvancedOptions{
			CombineCommands: true, OnChipLocks: true,
			LocalLockTables: true, WaitQueues: true, Handover: true}},
		{"+2-Level Ver", sherman.AdvancedOptions{
			CombineCommands: true, OnChipLocks: true,
			LocalLockTables: true, WaitQueues: true, Handover: true,
			TwoLevelVersions: true}},
	}

	fmt.Printf("write-intensive skewed workload: %d keys, %d workers, zipf(%.2f)\n\n", keys, workers, theta)
	fmt.Printf("%-14s  %8s  %10s  %10s  %11s  %10s\n",
		"config", "Mops", "p50 (us)", "p99 (us)", "RT/write", "handovers")

	var base float64
	for i, st := range steps {
		mops, p50, p99, rtPerWrite, handovers := run(st)
		marker := ""
		if i == 0 {
			base = mops
		} else if base > 0 {
			marker = fmt.Sprintf("  (%.1fx FG+)", mops/base)
		}
		fmt.Printf("%-14s  %8.2f  %10.1f  %10.1f  %11.2f  %10d%s\n",
			st.name, mops, float64(p50)/1000, float64(p99)/1000,
			rtPerWrite, handovers, marker)
	}

	fmt.Println("\nWhat to look for (paper, Figure 10b):")
	fmt.Println("  +Combine      cuts a round trip per write -> fewer blocked conflicts")
	fmt.Println("  +On-Chip      removes PCIe from lock CAS -> retries get absorbed")
	fmt.Println("  +Hierarchical queues conflicts locally -> remote retries vanish, fairness")
	fmt.Println("  +2-Level Ver  writes one entry, not one node -> bandwidth headroom")
}

func run(st step) (mops float64, p50, p99 int64, rtPerWrite float64, handovers int64) {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:  4,
		ComputeServers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	adv := st.adv
	tree, err := cluster.CreateTree(sherman.TreeOptions{Advanced: &adv})
	if err != nil {
		log.Fatal(err)
	}
	kvs := make([]sherman.KV, keys)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}

	zetan := 0.0
	for i := 1; i <= keys; i++ {
		zetan += 1 / math.Pow(float64(i), theta)
	}

	sessions := make([]*sherman.Session, workers)
	for w := range sessions {
		if sessions[w], err = tree.SessionAt(w % cluster.ComputeServers()); err != nil {
			log.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := sessions[w]
			rng := rand.New(rand.NewPCG(uint64(w)+1, 0xbeef))
			for i := 0; i < opsPerWkr; i++ {
				k := zipfKey(rng, zetan)
				var err error
				if i%2 == 0 {
					err = s.PutE(k, uint64(i)) // write-intensive: 50% inserts
				} else {
					_, _, err = s.GetE(k)
				}
				if err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()

	var ops, writes, rts int64
	var makespan int64
	for _, s := range sessions {
		st := s.Stats()
		ops += st.Lookups + st.Inserts
		writes += st.Inserts
		rts += st.RoundTrips
		handovers += st.Handovers
		if v := s.VirtualNow(); v > makespan {
			makespan = v
		}
		if st.P50LatencyNS > p50 {
			p50 = st.P50LatencyNS
		}
		if st.P99LatencyNS > p99 {
			p99 = st.P99LatencyNS
		}
	}
	mops = float64(ops) / float64(makespan) * 1e3
	rtPerWrite = float64(rts) / float64(writes)
	return mops, p50, p99, rtPerWrite, handovers
}

// zipfKey draws a scrambled-Zipf key in [1, keys].
func zipfKey(rng *rand.Rand, zetan float64) uint64 {
	u := rng.Float64()
	uz := u * zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+math.Pow(0.5, theta):
		rank = 1
	default:
		eta := (1 - math.Pow(2.0/keys, 1-theta)) / (1 - (1+1/math.Pow(2, theta))/zetan)
		rank = uint64(float64(keys) * math.Pow(eta*u-eta+1, 1/(1-theta)))
		if rank >= keys {
			rank = keys - 1
		}
	}
	x := rank
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%keys + 1
}
