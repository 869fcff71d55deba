package bench

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/migrate"
	"sherman/internal/sim"
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

// ElasticExp configures one scale-out run.
type ElasticExp struct {
	Name string

	// NumMS is the starting memory-server count; AddMS servers join
	// mid-run. NumCS/ThreadsPerCS shape the client side.
	NumMS, AddMS int
	NumCS        int
	ThreadsPerCS int

	// Keys sizes the key space. The tree must span several 8 MB chunks per
	// server or chunk-granularity migration cannot split load; Defaults
	// raises small values.
	Keys uint64

	Mix  workload.Mix
	Dist workload.Dist

	Tree core.Config

	// MeasureNS is the per-phase virtual window.
	MeasureNS int64
	// MaxOpsPerThread bounds a worker's measured ops (wall-time valve).
	MaxOpsPerThread int

	Params sim.Params
}

// Defaults fills unset fields.
func (e ElasticExp) Defaults() ElasticExp {
	if e.NumMS == 0 {
		e.NumMS = 1
	}
	if e.AddMS == 0 {
		e.AddMS = 1
	}
	if e.NumCS == 0 {
		e.NumCS = 4
	}
	if e.ThreadsPerCS == 0 {
		e.ThreadsPerCS = 4
	}
	if e.Keys < 1<<20 {
		e.Keys = 1 << 20 // ~3 chunks of 1 KB nodes per starting server
	}
	if e.MeasureNS == 0 {
		e.MeasureNS = 3_000_000
	}
	if e.MaxOpsPerThread == 0 {
		e.MaxOpsPerThread = 1_000_000
	}
	if e.Params.RTTNS == 0 {
		e.Params = sim.DefaultParams()
	}
	return e
}

// ElasticResult is the outcome of one scale-out run.
type ElasticResult struct {
	Name string

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

// RunElastic executes the scale-out experiment.
func RunElastic(e ElasticExp) ElasticResult {
	e = e.Defaults()
	if err := e.Mix.Validate(); err != nil {
		panic(err)
	}
	res := ElasticResult{Name: e.Name}

	cl := cluster.New(cluster.Config{
		NumMS: e.NumMS, NumCS: e.NumCS, MaxMS: e.NumMS + e.AddMS, Params: e.Params,
	})
	tr := core.New(cl, e.Tree)
	wcfg := workload.DefaultConfig(e.Mix, e.Dist, e.Keys)
	loaded := wcfg.LoadedKeys()
	kvs := make([]layout.KV, loaded)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: bulkValue(k)}
	}
	tr.Bulkload(kvs)

	baseGen := workload.NewGenerator(wcfg, 0x5eed)
	n := e.NumCS * e.ThreadsPerCS
	gens := make([]*workload.Generator, n)
	for i := range gens {
		gens[i] = workload.NewGeneratorFrom(baseGen, uint64(i)+1)
	}

	var startV int64
	seed := n
	window := func(coord func(h *core.Handle, gate *sim.Gate, slot int)) (float64, []stats.MSLoad, *stats.Recorder) {
		prev := cl.Loads()
		recs, maxV := runElasticWindow(e, cl, tr, gens, startV, seed, coord)
		seed += n + 1
		startV = maxV + 10_000
		var mops float64
		merged := stats.NewRecorder()
		for _, rec := range recs {
			merged.Merge(rec)
			// Per-thread rates over actual issuing intervals: the migration
			// window runs until the rebalance completes, so its length
			// varies per thread.
			if d := rec.FinishV - rec.StartV; d > 0 {
				mops += stats.ThroughputMops(rec.TotalOps(), d)
			}
		}
		return mops, stats.SubLoads(cl.Loads(), prev), merged
	}

	// Warmup window (discarded), then the baseline at the original size.
	window(nil)
	res.BaselineMops, _, _ = window(nil)

	// Scale out: the servers join (lock tables wired, allocators aware) but
	// no data moves yet — the whole historical load still targets the old
	// servers, which is exactly the skew the next window measures.
	for i := 0; i < e.AddMS; i++ {
		if _, err := cl.AddMS(); err != nil {
			panic(err)
		}
	}
	var loadsBefore []stats.MSLoad
	res.UnbalancedMops, loadsBefore, _ = window(nil)
	res.SkewBefore = stats.LoadMaxMin(loadsBefore)
	res.SkewMeanBefore = stats.LoadSkew(loadsBefore)

	// Migration window: one third in, a coordinator thread rebalances the
	// hottest chunks onto the newcomers while the workers keep serving.
	baseline := cl.Loads()
	var migr migrate.Stats
	var migrErr error
	mops, _, rec := window(func(h *core.Handle, gate *sim.Gate, slot int) {
		h.SetClock(startV + e.MeasureNS/3)
		gate.Sync(slot, h.C.Now())
		eng := migrate.New(h, migrate.Options{
			Baseline: baseline,
			Pace:     func(v int64) { gate.Sync(slot, v) },
		})
		t0 := h.C.Now()
		migr, migrErr = eng.Rebalance()
		res.RebalanceNS = h.C.Now() - t0
	})
	res.MigrateMops = mops
	res.Migration = migr
	res.ForwardHops = rec.ForwardHops
	if migrErr != nil {
		panic(migrErr)
	}

	// Steady state after the move.
	var loadsAfter []stats.MSLoad
	res.SteadyMops, loadsAfter, _ = window(nil)
	res.SkewAfter = stats.LoadMaxMin(loadsAfter)
	res.SkewMeanAfter = stats.LoadSkew(loadsAfter)
	res.ValidateErr = tr.Validate()

	// Control: the same workload on a cluster bulkloaded at the larger
	// size from the start — what steady state must be compared against.
	res.ControlMops = elasticControl(e)
	return res
}

// elasticControl measures one window on a fresh cluster provisioned at the
// final size up front.
func elasticControl(e ElasticExp) float64 {
	r := RunTree(TreeExp{
		Name:            e.Name + "-control",
		NumMS:           e.NumMS + e.AddMS,
		NumCS:           e.NumCS,
		ThreadsPerCS:    e.ThreadsPerCS,
		Keys:            e.Keys,
		Mix:             e.Mix,
		Dist:            e.Dist,
		Tree:            e.Tree,
		MeasureNS:       e.MeasureNS,
		MaxOpsPerThread: e.MaxOpsPerThread,
		Params:          e.Params,
	})
	return r.Mops
}

// runElasticWindow runs one measurement window with fresh handles starting
// at startV. coord, when non-nil, runs as one extra gate participant — the
// migration coordinator — and the workers then keep serving until both the
// deadline has passed and the coordinator finished, so the entire
// migration happens under live traffic.
func runElasticWindow(e ElasticExp, cl *cluster.Cluster, tr *core.Tree, gens []*workload.Generator, startV int64, seed int, coord func(h *core.Handle, gate *sim.Gate, slot int)) ([]*stats.Recorder, int64) {
	n := e.NumCS * e.ThreadsPerCS
	parts := n
	if coord != nil {
		parts++
	}
	recs := make([]*stats.Recorder, n)
	ends := make([]int64, parts)
	gate := sim.NewGate(gateWindowNS, gateSlack, parts)
	deadline := startV + e.MeasureNS
	coordDone := &sync.WaitGroup{}
	running := func() bool { return false }
	if coord != nil {
		flag := &atomic.Bool{}
		running = flag.Load
		flag.Store(true)
		coordDone.Add(1)
		go func() {
			defer coordDone.Done()
			defer flag.Store(false)
			slot := parts - 1
			defer gate.Done(slot)
			h := tr.NewHandle(0, seed+n)
			h.SetClock(startV)
			coord(h, gate, slot)
			ends[slot] = h.C.Now()
		}()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer gate.Done(i)
			h := tr.NewHandle(i%e.NumCS, seed+i)
			h.SetClock(startV + int64(i*9973%10_000))
			h.Pace = func(v int64) { gate.Sync(i, v) }
			rec := stats.NewRecorder()
			rec.StartV = h.C.Now()
			h.Rec = rec
			recs[i] = rec
			defer func() {
				rec.FinishV = h.C.Now()
				ends[i] = h.C.Now()
			}()
			g := gens[i]
			for j := 0; (h.C.Now() < deadline || running()) && j < e.MaxOpsPerThread; j++ {
				doOp(h, g.Next())
				gate.Sync(i, h.C.Now())
			}
		}(i)
	}
	wg.Wait()
	coordDone.Wait()
	var maxV int64
	for _, v := range ends {
		if v > maxV {
			maxV = v
		}
	}
	if maxV < deadline {
		maxV = deadline
	}
	return recs, maxV
}

func elasticExp(s Scale, name string) ElasticExp {
	keys := s.Keys
	if keys < 1<<20 {
		keys = 1 << 20
	}
	if keys > 2<<20 {
		keys = 2 << 20
	}
	return ElasticExp{
		Name:         name,
		Keys:         keys,
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
	e := elasticExp(s, "elastic")
	r := RunElastic(e)
	ed := e.Defaults()
	t := NewTable(fmt.Sprintf("Elastic: %d→%d memory servers mid-run (read-intensive uniform, %d CS x %d threads)",
		ed.NumMS, ed.NumMS+ed.AddMS, ed.NumCS, ed.ThreadsPerCS),
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
