package bench

import (
	"fmt"

	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/sim"
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
		r := RunLocks(lockScale(s), 8, hocl.Config{Mode: hocl.Sherman(), LocksPerMS: figLocks, MaxHandover: depth},
			0.99, sim.DefaultParams())
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
		r := RunLocks(lockScale(s), 8, hocl.Config{Mode: hocl.Baseline(), LocksPerMS: figLocks}, 0.8, p)
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
	}
}
