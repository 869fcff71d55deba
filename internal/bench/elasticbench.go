package bench

import (
	"fmt"

	"sherman/internal/core"
	"sherman/internal/migrate"
	"sherman/internal/stats"
	"sherman/internal/workload"
)

// This file is the elasticity experiment: a cluster serving a steady
// read-heavy workload scales from one memory server to two *while the
// measurement window runs* — the migration engine moves the hottest chunks
// onto the newcomer under live traffic. Reported: per-MS inbound-load skew
// before and after rebalancing, the rebalance's virtual duration, the
// throughput dip in the migration window, and the steady-state throughput
// against a control cluster bulkloaded at the larger size from the start
// (the price of having scaled out online rather than provisioned up
// front).

// elasticAddMS is how many memory servers join mid-run.
const elasticAddMS = 1

// ElasticResult is the outcome of one scale-out run.
type ElasticResult struct {
	// BaselineMops is the window throughput at the original size;
	// UnbalancedMops the window after the servers joined but before any
	// data moved (new servers take only fresh allocations); MigrateMops
	// the window during which the rebalance ran (the dip); SteadyMops the
	// post-rebalance steady state; ControlMops the same workload on a
	// cluster bulkloaded at the larger size from the start.
	BaselineMops, UnbalancedMops, MigrateMops, SteadyMops, ControlMops float64

	// SkewBefore/SkewAfter are hottest/coldest per-MS inbound window loads
	// (stats.LoadMaxMin) over the final server set, before vs after the
	// rebalance. SkewMeanBefore/After are the max/mean variants.
	SkewBefore, SkewAfter         float64
	SkewMeanBefore, SkewMeanAfter float64

	// RebalanceNS is the migration's span on the migrating thread's
	// virtual clock; the Stats carry chunk/node/repoint counts.
	RebalanceNS int64
	Migration   migrate.Stats

	// ForwardHops counts reads that resolved through the forwarding map
	// during the migration window — traffic served mid-move.
	ForwardHops int64

	// ValidateErr is the post-run structural check.
	ValidateErr error
}

// RunElastic executes the scale-out experiment over e's fixture: e.NumMS
// memory servers, then elasticAddMS more joining mid-run.
func RunElastic(e TreeExp) ElasticResult {
	fx := newFixture(e, elasticAddMS, 0)
	e = fx.e
	fx.seed = fx.threads() // window handles draw seeds from n up
	var res ElasticResult

	window := func(coord func(int64, func(int64)) int64) (float64, []stats.MSLoad, *stats.Recorder) {
		prev := fx.cl.Loads()
		recs, _ := fx.window(fx.worker, coord)
		// Per-thread rates over actual issuing intervals: the migration
		// window runs until the rebalance completes, so its length varies
		// per thread.
		merged := stats.NewRecorder()
		mops := intervalMops(recs, merged)
		return mops, stats.SubLoads(fx.cl.Loads(), prev), merged
	}

	// Warmup window (discarded), then the baseline at the original size.
	window(nil)
	res.BaselineMops, _, _ = window(nil)

	// Scale out: the servers join (lock tables wired, allocators aware) but
	// no data moves yet — the whole historical load still targets the old
	// servers, which is exactly the skew the next window measures.
	for i := 0; i < elasticAddMS; i++ {
		if _, err := fx.cl.AddMS(); err != nil {
			panic(err)
		}
	}
	var loadsBefore []stats.MSLoad
	res.UnbalancedMops, loadsBefore, _ = window(nil)
	res.SkewBefore = stats.LoadMaxMin(loadsBefore)
	res.SkewMeanBefore = stats.LoadSkew(loadsBefore)

	// Migration window: one third in, a coordinator thread rebalances the
	// hottest chunks onto the newcomers while the workers keep serving.
	baseline := fx.cl.Loads()
	var migrErr error
	h := fx.handle(0)
	mops, _, rec := window(func(start int64, pace func(int64)) int64 {
		h.SetClock(start + e.MeasureNS/3)
		pace(h.C.Now())
		eng := migrate.New(h, migrate.Options{Baseline: baseline, Pace: pace})
		t0 := h.C.Now()
		res.Migration, migrErr = eng.Rebalance()
		res.RebalanceNS = h.C.Now() - t0
		return h.C.Now()
	})
	res.MigrateMops = mops
	res.ForwardHops = rec.ForwardHops
	if migrErr != nil {
		panic(migrErr)
	}

	// Steady state after the move.
	var loadsAfter []stats.MSLoad
	res.SteadyMops, loadsAfter, _ = window(nil)
	res.SkewAfter = stats.LoadMaxMin(loadsAfter)
	res.SkewMeanAfter = stats.LoadSkew(loadsAfter)
	res.ValidateErr = fx.tr.Validate()

	// Control: the same workload on a cluster bulkloaded at the larger
	// size from the start — what steady state must be compared against.
	ctl := e
	ctl.NumMS += elasticAddMS
	res.ControlMops = RunTree(ctl).Mops
	return res
}

func elasticExp(s Scale) TreeExp {
	return TreeExp{
		NumMS: 1,
		NumCS: 4,
		// The tree must span several 8 MB chunks per server or
		// chunk-granularity migration cannot split load: ~3 chunks of
		// 1 KB nodes per starting server.
		Keys:         min(max(s.Keys, 1<<20), 2<<20),
		ThreadsPerCS: min(s.ThreadsPerCS, 8),
		MeasureNS:    s.MeasureNS,
		Mix:          workload.ReadIntensive,
		Dist:         workload.Uniform,
		Tree:         core.ShermanConfig(),
	}
}

// Elastic runs the scale-out experiment and renders its trajectory. When c
// is non-nil, typed metrics land in the JSON report (BENCH_4.json).
func Elastic(s Scale, c *Collector) (*Table, ElasticResult) {
	e := elasticExp(s)
	r := RunElastic(e)
	t := NewTable(fmt.Sprintf("Elastic: %d→%d memory servers mid-run (read-intensive uniform, %d CS x %d threads)",
		e.NumMS, e.NumMS+elasticAddMS, e.NumCS, e.ThreadsPerCS),
		"phase", "Mops", "skew max/min", "skew max/mean", "notes")
	t.Add("baseline (1 MS)", MopsString(r.BaselineMops), "-", "-", "original size")
	t.Add("added, unbalanced", MopsString(r.UnbalancedMops), f1(r.SkewBefore), f1(r.SkewMeanBefore), "server joined, no data moved")
	t.Add("migration window", MopsString(r.MigrateMops),
		"-", "-",
		fmt.Sprintf("rebalance %s us: %d chunks, %d nodes, %d hops",
			USString(r.RebalanceNS), r.Migration.ChunksMoved, r.Migration.NodesMoved, r.ForwardHops))
	t.Add("steady state", MopsString(r.SteadyMops), f1(r.SkewAfter), f1(r.SkewMeanAfter), "rebalanced")
	valid := "ok"
	if r.ValidateErr != nil {
		valid = r.ValidateErr.Error()
	}
	t.Add("control (2 MS)", MopsString(r.ControlMops), "-", "-", "bulkloaded at final size; validate "+valid)
	t.Note("skew is per-MS inbound NIC load over the window, hottest/coldest (and hottest/mean)")
	t.Note("the migration window starts its rebalance one third in; forwarding hops are reads served mid-move")

	c.Add(Metric{Exp: "elastic", Name: "elastic/baseline", Mops: r.BaselineMops})
	c.Add(Metric{Exp: "elastic", Name: "elastic/unbalanced", Mops: r.UnbalancedMops, Skew: r.SkewBefore})
	c.Add(Metric{Exp: "elastic", Name: "elastic/migration", Mops: r.MigrateMops, RecoveryNS: r.RebalanceNS})
	c.Add(Metric{Exp: "elastic", Name: "elastic/steady", Mops: r.SteadyMops, Skew: r.SkewAfter, Gate: true})
	c.Add(Metric{Exp: "elastic", Name: "elastic/control", Mops: r.ControlMops})
	return t, r
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// ElasticGate is the CI check behind `shermanbench -exp elastic -check`:
// after one memory server joins mid-run, rebalancing must cut the per-MS
// inbound-load skew by at least 2x, steady-state throughput must reach 95%
// of a cluster bulkloaded at the larger size, the migration window must
// have made progress, and the tree must validate.
func ElasticGate(r *ElasticResult) error {
	if r == nil {
		return fmt.Errorf("elastic gate: experiment did not run")
	}
	if r.ValidateErr != nil {
		return fmt.Errorf("elastic gate: tree invalid after rebalance: %w", r.ValidateErr)
	}
	if r.Migration.ChunksMoved == 0 || r.Migration.NodesMoved == 0 {
		return fmt.Errorf("elastic gate: rebalance moved nothing (%+v)", r.Migration)
	}
	if r.SkewAfter <= 0 || r.SkewBefore < 2*r.SkewAfter {
		return fmt.Errorf("elastic gate: skew only dropped %.1f -> %.1f (want >= 2x)", r.SkewBefore, r.SkewAfter)
	}
	if r.SteadyMops < 0.95*r.ControlMops {
		return fmt.Errorf("elastic gate: steady state %.2f Mops under 95%% of control %.2f",
			r.SteadyMops, r.ControlMops)
	}
	if r.MigrateMops <= 0 {
		return fmt.Errorf("elastic gate: no progress during the migration window")
	}
	return nil
}
