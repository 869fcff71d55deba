// Parameter server: the write-intensive, highly skewed workload the paper's
// introduction motivates (§1, §3.1 cite parameter servers [41] among the
// write-heavy datacenter applications).
//
// A distributed training job keeps model parameters in a shared index.
// Workers repeatedly push gradient updates — writes against a small set of
// hot parameters (embedding tables, shared layers follow a Zipfian
// popularity) — and periodically pull parameters back. This is exactly the
// regime where the one-sided baseline collapses (Table 1: 0.34 Mops, ~20 ms
// p99) and Sherman holds an order of magnitude more throughput.
//
// The example runs the same push/pull workload against both engines and
// prints the comparison.
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
	numParams    = 200_000 // model parameters (index keys)
	workers      = 64      // trainer threads across all compute servers
	pushesPerEpc = 400     // updates per worker per epoch
	pullEvery    = 10      // one pull per N pushes
	zipfTheta    = 0.99    // hot-parameter skew (paper's default skewness)
)

func main() {
	fmt.Printf("parameter server: %d params, %d workers, zipf(%.2f) hot keys\n\n",
		numParams, workers, zipfTheta)
	fmt.Printf("%-8s  %10s  %12s  %12s  %14s\n",
		"engine", "Mops", "p50 (us)", "p99 (us)", "bytes/update")

	for _, opts := range []sherman.TreeOptions{
		sherman.FGPlusTreeOptions(),
		sherman.DefaultTreeOptions(),
	} {
		run(opts)
	}

	fmt.Println("\nThe FG+ baseline serializes hot-parameter updates behind host-memory")
	fmt.Println("lock retries and writes back whole 1 KB nodes; Sherman combines the")
	fmt.Println("write-back with the lock release, queues conflicting updates locally,")
	fmt.Println("and writes back one ~18 B entry per update.")
}

func run(opts sherman.TreeOptions) {
	cluster, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:  4,
		ComputeServers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := cluster.CreateTree(opts)
	if err != nil {
		log.Fatal(err)
	}

	// Initialize all parameters to version 0.
	kvs := make([]sherman.KV, numParams)
	for i := range kvs {
		kvs[i] = sherman.KV{Key: uint64(i + 1), Value: 0}
	}
	if err := tree.Bulkload(kvs); err != nil {
		log.Fatal(err)
	}

	// Precompute each worker's parameter-access sequence: Zipf ranks
	// scattered over the key space (YCSB's scrambled-Zipfian construction).
	zipf := newZipf(numParams, zipfTheta)

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
			rng := rand.New(rand.NewPCG(uint64(w)+1, 0xfeed))
			for i := 0; i < pushesPerEpc; i++ {
				param := zipf.key(rng)
				// Push: read-modify-write of the parameter version. The
				// index's node lock makes the update atomic.
				if err := s.PutE(param, uint64(i)); err != nil {
					log.Fatal(err)
				}
				if i%pullEvery == 0 {
					if _, ok, err := s.GetE(param); err != nil || !ok {
						log.Fatalf("parameter %d vanished (%v)", param, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Aggregate per-session stats: throughput is ops over the slowest
	// worker's virtual clock (the experiment makespan).
	var ops, writeBytes, writes int64
	var makespan int64
	var p50, p99 int64
	for _, s := range sessions {
		st := s.Stats()
		ops += st.Lookups + st.Inserts
		writes += st.Inserts
		writeBytes += st.WriteBytes
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
	mops := float64(ops) / float64(makespan) * 1e3
	fmt.Printf("%-8s  %10.2f  %12.1f  %12.1f  %14.1f\n",
		opts.Engine, mops, float64(p50)/1000, float64(p99)/1000,
		float64(writeBytes)/float64(writes))

	if err := tree.Validate(); err != nil {
		log.Fatalf("%s: tree invariants violated: %v", opts.Engine, err)
	}
}

// zipf draws Zipf-distributed ranks and scrambles them over the key space.
type zipf struct {
	n     uint64
	theta float64
	zetan float64
	eta   float64
	alpha float64
	half  float64
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n, theta: theta}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.half = 1 + 1/math.Pow(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	return z
}

func (z *zipf) key(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.half:
		rank = 1
	default:
		rank = uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
		if rank >= z.n {
			rank = z.n - 1
		}
	}
	// splitmix64 scramble so hot keys scatter across leaves.
	x := rank
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%z.n + 1
}
