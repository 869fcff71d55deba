package bench

import (
	"math/rand/v2"
	"runtime"
	"sync"

	"sherman/internal/rdma"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// newRand creates a thread-local PRNG.
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
}

// WriteExp is the raw RDMA_WRITE microbenchmark of Figure 3: saturating
// either one memory server's inbound pipeline (many CSs writing to one MS)
// or one compute server's outbound pipeline (one CS writing to many MSs)
// at a given IO size.
type WriteExp struct {
	IOSize  int
	Inbound bool // true: 8 CSs -> 1 MS; false: 1 CS -> 8 MSs
	Threads int
	Ops     int // per thread
}

// Defaults fills unset fields.
func (e WriteExp) Defaults() WriteExp {
	if e.Threads == 0 {
		e.Threads = 64
	}
	if e.Ops == 0 {
		e.Ops = 4000
	}
	if e.IOSize == 0 {
		e.IOSize = 64
	}
	return e
}

// WriteResult is the measured verb throughput.
type WriteResult struct {
	Mops float64
}

// RunWrites executes one RDMA_WRITE saturation run.
func RunWrites(e WriteExp) WriteResult {
	e = e.Defaults()
	numMS, numCS := 1, 8
	if !e.Inbound {
		numMS, numCS = 8, 1
	}
	f := rdma.NewFabric(sim.DefaultParams(), numMS, numCS)
	// One private chunk per thread per server keeps targets distinct.
	bases := make([][]uint64, numMS)
	for ms := 0; ms < numMS; ms++ {
		bases[ms] = make([]uint64, e.Threads)
		for th := 0; th < e.Threads; th++ {
			bases[ms][th] = f.Servers()[ms].Grow()
		}
	}

	// Every client exists before any worker starts, so verbs yield from the
	// first one on (rdma.Client.yield).
	clients := make([]*rdma.Client, e.Threads)
	for th := range clients {
		clients[th] = f.NewClient(th % numCS)
	}
	finish := make([]int64, e.Threads)
	var wg sync.WaitGroup
	for th := 0; th < e.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			c := clients[th]
			data := make([]byte, e.IOSize)
			// Saturation benchmarks keep many WRITEs in flight: post
			// unsignaled batches per QP, paying one round trip per batch.
			const batch = 32
			ops := make([]transport.WriteOp, 0, batch)
			for i := 0; i < e.Ops; i += batch {
				ms := uint16(0)
				if !e.Inbound {
					ms = uint16((i / batch) % numMS)
				}
				ops = ops[:0]
				for j := 0; j < batch && i+j < e.Ops; j++ {
					off := bases[ms][th] + uint64(((i+j)*e.IOSize)%(transport.DefaultChunkSize-e.IOSize))
					off &^= 63
					ops = append(ops, transport.WriteOp{Addr: transport.MakeAddr(ms, off), Data: data})
				}
				c.PostWrites(ops...)
				runtime.Gosched()
			}
			finish[th] = c.Now()
		}(th)
	}
	wg.Wait()
	var makespan int64
	for _, v := range finish {
		if v > makespan {
			makespan = v
		}
	}
	return WriteResult{Mops: stats.ThroughputMops(int64(e.Threads*e.Ops), makespan)}
}
