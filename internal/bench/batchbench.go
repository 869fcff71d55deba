package bench

import (
	"fmt"

	"sherman/internal/core"
	"sherman/internal/workload"
)

// BatchSweep reports the batch execution pipeline: it compares batched and
// sequential execution of a uniform write-only workload at increasing batch
// sizes, for both engines. Not a paper figure — the paper batches only the
// dependent writes *within* one operation (§4.5); this table measures what
// batching *across* operations adds on top. batch=1 is the sequential path;
// RT/op and lock acq/op are measured-window per-operation costs, and
// ops/group is the number of operations each leaf lock acquisition served.
// When c is non-nil, typed metrics are recorded for the JSON report and
// regression gate.
func BatchSweep(s Scale, c *Collector) *Table {
	t := NewTable("Batch pipeline: batched vs sequential Put (uniform write-only)",
		"config", "keys", "batch", "Mops", "RT/op", "lock acq/op", "ops/group", "p50(us)", "p99(us)")
	// The sparse keyspace is the paper's scale; the dense one (a hot table
	// a real batch client would hammer) co-locates batch keys in leaves,
	// showing the leaf-group amortization at full strength.
	for _, keys := range []uint64{s.Keys, s.Keys / 16} {
		for _, cfg := range []core.Config{core.ShermanConfig(), core.FGPlusConfig()} {
			for _, bs := range []int{1, 8, 32, 128} {
				e := s.treeExp(cfg.Name(), workload.WriteOnly, workload.Uniform, cfg)
				e.Keys = keys
				e.BatchSize = bs
				r := RunTreeN(e, s.runs())
				group := "-"
				if g := r.Rec.BatchLeafGroups; g > 0 {
					group = fmt.Sprintf("%.2f", float64(r.Rec.BatchedOps)/float64(g))
				}
				t.Add(cfg.Name(), fmt.Sprint(keys), fmt.Sprint(bs), MopsString(r.Mops),
					fmt.Sprintf("%.2f", r.RoundTripsPerOp),
					fmt.Sprintf("%.2f", r.LockAcqPerOp),
					group, USString(r.P50), USString(r.P99))
				c.Add(Metric{
					Exp:  "batch",
					Name: fmt.Sprintf("batch/%s/keys=%d/bs=%d", cfg.Name(), keys, bs),
					// The dense hot-table cells sit in a bistable convoy
					// regime; report them, but don't gate on them.
					Gate: keys == s.Keys,
					Mops: r.Mops, P50NS: r.P50, P99NS: r.P99,
					RTPerOp: r.RoundTripsPerOp, LockAcqPerOp: r.LockAcqPerOp,
				})
			}
		}
	}
	t.Note("batch=1 is the sequential path; RT/op and acq/op are measured-window per-operation costs")
	t.Note("p50/p99 are amortized per-op latencies: a batch of n completing in T books T/n per operation")
	return t
}
