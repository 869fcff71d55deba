package bench

import (
	"fmt"
	"sync"

	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/rdma"
	"sherman/internal/rpcindex"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/workload"
)

// The experiments in this file are not figures from the paper: they ablate
// design constants the paper fixes without sweeping — the handover depth
// bound (MAX_DEPTH = 4, §4.3), the global-lock-table size (131,072 locks,
// §4.3), the NIC's atomic bucket count (§3.2.2), and the decision to cache
// level-1 nodes at all (§4.2.3). DESIGN.md lists them as open design
// choices worth quantifying.

// ExtraHandoverDepth sweeps HOCL's consecutive-handover bound on the raw
// lock workload. Depth 0 disables handover; unbounded depth starves remote
// compute servers (visible as cross-CS p99).
func ExtraHandoverDepth(s Scale) *Table {
	t := NewTable("Extra: handover depth bound (skewed locks, theta=0.99)",
		"max depth", "Mops", "p50(us)", "p99(us)", "handovers")
	for _, depth := range []int{1, 2, 4, 16, 64} {
		r := RunLocks(LockExp{
			Name:        fmt.Sprintf("depth=%d", depth),
			Theta:       0.99,
			Mode:        hocl.Sherman(),
			MaxHandover: depth,
			MeasureNS:   s.MeasureNS,
		})
		t.Add(fmt.Sprint(depth), MopsString(r.Mops), USString(r.P50), USString(r.P99),
			fmt.Sprint(r.Handovers))
	}
	t.Note("paper fixes MAX_DEPTH=4; deeper handover chains trade cross-CS fairness for locality")
	return t
}

// ExtraGLTSize sweeps the number of global locks per memory server: fewer
// locks mean more false sharing between unrelated tree nodes hashed onto
// one lock.
func ExtraGLTSize(s Scale) *Table {
	t := NewTable("Extra: global lock table size (write-intensive, skewed)",
		"locks/MS", "Mops", "p99(us)")
	for _, locks := range []int{64, 1024, 16384, 131072} {
		cfg := core.ShermanConfig()
		cfg.LocksPerMS = locks
		r := RunTreeN(s.treeExp(fmt.Sprintf("locks=%d", locks),
			workload.WriteIntensive, workload.Zipfian, cfg), s.runs())
		t.Add(fmt.Sprint(locks), MopsString(r.Mops), USString(r.P99))
	}
	t.Note("paper uses 131,072 (256 KB on-chip / 16-bit locks); small tables alias hot and cold nodes")
	return t
}

// ExtraCacheOff steps the unified cache's budgeted depth — off (pinned top
// levels only), the paper's flat level-1-only cache, and the multi-level
// default — under the uniform write-intensive workload, surfacing the
// speculation and invalidation counters alongside throughput.
func ExtraCacheOff(s Scale) *Table {
	t := NewTable("Extra: index cache contribution (uniform write-intensive)",
		"config", "Mops", "p50(us)", "hit ratio", "spec ok", "inval", "evictions")
	for _, c := range []struct {
		name   string
		levels int
	}{
		{"top levels only (levels=off)", -1},
		{"flat level-1 (levels=1)", 1},
		{"unified multi-level (default)", 0},
	} {
		cfg := core.ShermanConfig()
		cfg.CacheLevels = c.levels
		r := RunTreeN(s.treeExp(c.name, workload.WriteIntensive, workload.Uniform, cfg), s.runs())
		t.Add(c.name, MopsString(r.Mops), USString(r.P50),
			fmt.Sprintf("%.1f%%", r.HitRatio*100),
			fmt.Sprintf("%.1f%%", r.Rec.SpecSuccessRate()*100),
			fmt.Sprint(r.Rec.CacheInvalidations),
			fmt.Sprint(r.CacheEvictions))
	}
	t.Note("without budgeted copies every operation pays the lower-level reads on top of the leaf read")
	t.Note("spec ok: speculative leaf-direct reads validating first try; inval: stale entries dropped")
	return t
}

// ExtraBuckets sweeps the NIC's internal atomic bucket count on the
// baseline lock workload: fewer buckets mean unrelated locks collide inside
// the NIC's concurrency control (§3.2.2).
func ExtraBuckets(s Scale) *Table {
	t := NewTable("Extra: NIC atomic buckets (baseline host locks, theta=0.8)",
		"buckets", "Mops", "p99(us)")
	for _, buckets := range []int{16, 256, 4096} {
		p := sim.DefaultParams()
		p.AtomicBuckets = buckets
		r := RunLocks(LockExp{
			Name:      fmt.Sprintf("buckets=%d", buckets),
			Theta:     0.8,
			Mode:      hocl.Baseline(),
			MeasureNS: s.MeasureNS,
			Params:    p,
		})
		t.Add(fmt.Sprint(buckets), MopsString(r.Mops), USString(r.P99))
	}
	t.Note("the paper cites ~4096 buckets keyed by low address bits; collisions serialize unrelated atomics")
	return t
}

// ExtraCombineSplit isolates command combination on the split path: with a
// same-MS sibling, three WRITEs (sibling, node, release) combine into one
// doorbell batch; cross-MS siblings cost an extra round trip.
func ExtraCombineSplit(s Scale) *Table {
	t := NewTable("Extra: round trips per insert (write-only, uniform)",
		"config", "rt p50", "rt p99", "Mops")
	for _, c := range []struct {
		name    string
		combine bool
	}{{"combined", true}, {"separate", false}} {
		cfg := core.ShermanConfig()
		cfg.Combine = c.combine
		r := RunTreeN(s.treeExp(c.name, workload.WriteOnly, workload.Uniform, cfg), s.runs())
		t.Add(c.name,
			fmt.Sprint(r.Rec.WriteRoundTrips.PercentileValue(50)),
			fmt.Sprint(r.Rec.WriteRoundTrips.PercentileValue(99)),
			MopsString(r.Mops))
	}
	t.Note("combination saves one round trip per write and two on same-MS splits (§4.5)")
	return t
}

// Extras returns all design-choice ablations.
func Extras(s Scale) []*Table {
	return []*Table{
		ExtraHandoverDepth(s),
		ExtraGLTSize(s),
		ExtraCacheOff(s),
		ExtraBuckets(s),
		ExtraCombineSplit(s),
		ExtraRPCBaseline(s),
	}
}

// ExtraRPCBaseline measures the RPC-write index design of Cell/FaRM-Tree
// on disaggregated memory: writes ship to the 1-2 wimpy cores of the
// memory servers and throughput saturates at numMS / RPC-service-time no
// matter how many clients are added — the reason Table 2 marks those
// designs as unable to ride disaggregated memory (§3.1). Sherman's
// one-sided writes keep scaling on the same fabric.
func ExtraRPCBaseline(s Scale) *Table {
	t := NewTable("Extra: RPC-write index vs Sherman (uniform write-only)",
		"threads", "RPC-index(Mops)", "Sherman(Mops)")
	for _, tpc := range []int{2, 8, 22, 44} {
		rpc := runRPCWrites(tpc, s)
		e := s.treeExp("sherman", workload.WriteOnly, workload.Uniform, core.ShermanConfig())
		e.ThreadsPerCS = tpc
		sherman := RunTree(e).Mops
		t.Add(fmt.Sprint(tpc*8), MopsString(rpc), MopsString(sherman))
	}
	t.Note("RPC writes cap at numMS/rpc-service (~4 Mops at 8 MS); one-sided writes keep scaling")
	return t
}

// runRPCWrites drives the RPC index with the harness's windowed
// measurement (no warmup needed: there is no client cache to fill).
func runRPCWrites(threadsPerCS int, s Scale) float64 {
	f := rdma.NewFabric(sim.DefaultParams(), 8, 8)
	ix := rpcindex.New(f)
	n := 8 * threadsPerCS
	gate := sim.NewGate(gateWindowNS, gateSlack, n)
	ops := make([]int64, n)
	handles := make([]*rpcindex.Handle, n)
	for i := range handles {
		handles[i] = ix.NewHandle(i % 8)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer gate.Done(i)
			h := handles[i]
			rng := newRand(uint64(i) + 1)
			deadline := s.MeasureNS
			for h.C.Now() < deadline {
				h.Put(rng.Uint64N(1<<20)+1, 1)
				ops[i]++
				gate.Sync(i, h.C.Now())
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, v := range ops {
		total += v
	}
	return stats.ThroughputMops(total, s.MeasureNS)
}
