package bench

import (
	"sherman/internal/hocl"
	"sherman/internal/rdma"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/workload"
)

const (
	// figLocks is the lock count of Figures 2 and 16, all on memory
	// server 0.
	figLocks = 10240
	// lockHoldNS is the local critical section between acquire and release.
	lockHoldNS = 200
)

// lockScale is the Figure 16 setup every lock experiment runs at: 22
// threads per compute server and 200 warm-up acquisitions each, over s's
// window.
func lockScale(s Scale) Scale {
	return Scale{ThreadsPerCS: 22, WarmupOps: 200, MeasureNS: s.MeasureNS}
}

// LockResult is the outcome of one lock experiment.
type LockResult struct {
	Mops          float64
	P50, P99      int64
	Handovers     int64
	GlobalRetries int64
	// Rec is the merged per-thread recorder: one OpInsert per acquisition.
	Rec *stats.Recorder
}

// RunLocks is the raw lock microbenchmark of Figures 2 and 16: numCS x
// s.ThreadsPerCS threads acquire a lock of lk's table on memory server 0,
// hold it lockHoldNS and release it. Locks are picked Zipf(theta), or
// uniformly when theta is 0.
func RunLocks(s Scale, numCS int, lk hocl.Config, theta float64) LockResult {
	f := rdma.NewFabric(sim.DefaultParams(), 1, numCS)
	mgr := hocl.NewManager(f, lk)
	var zipf *workload.ZipfGen
	if theta > 0 {
		zipf = workload.NewZipfGen(uint64(lk.LocksPerMS), theta)
	}
	recs, _ := Run(Spec{
		Threads: numCS * s.ThreadsPerCS, WarmupOps: s.WarmupOps, MeasureNS: s.MeasureNS,
		Worker: func(i int) Worker {
			c := f.NewClient(i % numCS)
			rng := newRand(uint64(i) + 1)
			var rec *stats.Recorder // nil during warm-up
			return Worker{C: c, Rec: &rec, Issue: func() int {
				idx := 0
				if zipf != nil {
					idx = int(zipf.Next(rng))
				} else {
					idx = int(rng.Uint64N(uint64(lk.LocksPerMS)))
				}
				t0 := c.Now()
				g := mgr.LockIdx(c, 0, idx)
				c.Step(lockHoldNS)
				mgr.Unlock(c, g, nil, true)
				if rec != nil {
					rec.RecordOp(stats.OpInsert, c.Now()-t0)
				}
				return 1
			}}
		},
	})
	merged := stats.NewRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	return LockResult{
		Mops:          stats.ThroughputMops(merged.TotalOps(), s.MeasureNS),
		P50:           merged.AllLatency.Percentile(50),
		P99:           merged.AllLatency.Percentile(99),
		Handovers:     mgr.Stats.Handovers.Load(),
		GlobalRetries: mgr.Stats.GlobalRetries.Load(),
		Rec:           merged,
	}
}
