// Package bench is the evaluation harness: one experiment per table and
// figure of the paper's §5, plus the repo's own, runnable through
// cmd/shermanbench.
//
// Every gate-paced experiment is one or more calls of Run. A Spec names the
// workers, their warm-up, the window's start clock and an optional
// mid-window coordinator. Run builds every worker, runs the warm-up, aligns
// all thread clocks (with per-thread jitter), then measures over a fixed
// virtual-time window: threads issue operations until their clocks pass the
// deadline, and throughput is completed operations divided by the window —
// the same windowed measurement a real testbed uses, and the only form
// under which lock-convoy equilibria are visible. Latencies come from the
// merged per-thread recorders.
package bench

import (
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/transport"
	"sherman/internal/workload"
)

const (
	// Pacing parameters for sim.Gate: workers may run at most gateSlack
	// windows of gateWindowNS virtual nanoseconds ahead of the slowest
	// active worker.
	gateWindowNS = 20_000
	gateSlack    = 2

	// maxOpsPerThread bounds a worker's measured operations: a wall-time
	// safety valve.
	maxOpsPerThread = 1_000_000
)

// A Worker is one closed-loop client thread of a Spec.
type Worker struct {
	// C is the worker's fabric client: Run aligns its clock and counts its
	// round trips.
	C transport.Transport
	// Issue runs one unit of work, one operation or one batch, and returns
	// the operations it completed.
	Issue func() int
	// Flush, when non-nil, completes the worker's outstanding operations.
	Flush func()
	// Rec is where the worker records; Run points it at the window's
	// recorder once warm-up is over.
	Rec **stats.Recorder
	// Pace, when non-nil, is the hook the worker calls between the leaf
	// groups of a batch (core.Handle.Pace); Run installs the gate there.
	Pace *func(int64)
}

// Spec is one measured window.
type Spec struct {
	// Threads is the number of workers, and Worker builds worker i. Run
	// builds every worker before it starts any, so their verbs interleave
	// from the first (DESIGN.md §1).
	Threads int
	Worker  func(i int) Worker
	// WarmupOps is issued by each worker before the clocks align.
	WarmupOps int
	// Start is every worker's clock before warm-up.
	Start int64
	// MeasureNS is the window: workers issue until their clocks pass the
	// aligned start plus MeasureNS.
	MeasureNS int64
	// Coordinator, when non-nil, runs as one more gate participant from the
	// aligned start, paces its clock through pace and returns its end
	// clock. Workers keep issuing until their clocks pass that end too, so
	// all of its work happens under live traffic.
	Coordinator func(start int64, pace func(int64)) (end int64)
	// Aligned, when non-nil, runs while every worker is parked between
	// warm-up and measurement.
	Aligned func()
}

// Run executes one Spec. It returns every worker's recorder, with StartV,
// FinishV and RoundTrips of the measured window, and the window's end
// clock: the latest of the deadline and every worker's and the
// coordinator's final clock. A worker whose compute server the fault
// injector kills mid-window stops there; its recorder keeps what it
// completed.
func Run(sp Spec) ([]*stats.Recorder, int64) {
	n := sp.Threads
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = sp.Worker(i)
	}
	parts := n
	if sp.Coordinator != nil {
		parts++
	}
	gate := sim.NewGate(gateWindowNS, gateSlack, parts)
	recs := make([]*stats.Recorder, n)
	ends := make([]int64, parts)
	warmV := make([]int64, n)
	var until atomic.Int64 // workers issue while their clock is below it
	var aligned int64      // the slowest warm-up clock, set before startCh closes
	startCh := make(chan struct{})
	var warmed, done sync.WaitGroup
	warmed.Add(n)
	done.Add(parts)

	for i := range ws {
		go func(i int) {
			defer done.Done()
			defer gate.Done(i)
			w := ws[i]
			if w.Pace != nil {
				// Batch executors pace between leaf groups so a long batch
				// cannot carry this thread's clock outside the gate window.
				*w.Pace = func(v int64) { gate.Sync(i, v) }
			}
			w.C.AdvanceTo(sp.Start)
			for j := 0; j < sp.WarmupOps; j += w.Issue() {
				gate.Sync(i, w.C.Now())
			}
			if w.Flush != nil {
				w.Flush()
			}
			warmV[i] = w.C.Now()
			gate.Park(i) // a frozen clock must not stall threads still warming up
			warmed.Done()
			<-startCh
			start := aligned + jitter(i)
			w.C.AdvanceTo(start)
			rec := stats.NewRecorder()
			rec.StartV = start
			recs[i] = rec
			*w.Rec = rec
			rt0 := w.C.Metrics().RoundTrips
			defer func() {
				rec.RoundTrips = w.C.Metrics().RoundTrips - rt0
				rec.FinishV = w.C.Now()
				ends[i] = rec.FinishV
				if r := recover(); r != nil {
					if _, ok := transport.IsCrash(r); !ok {
						panic(r)
					}
				}
			}()
			for j := 0; w.C.Now() < until.Load() && j < maxOpsPerThread; j += w.Issue() {
				// Pace workers so virtual clocks stay within a bounded
				// window of each other (see sim.Gate).
				gate.Sync(i, w.C.Now())
			}
			if w.Flush != nil {
				w.Flush() // fold outstanding completions into the makespan
			}
		}(i)
	}
	if sp.Coordinator != nil {
		gate.Park(n) // joins at the aligned start
		go func() {
			defer done.Done()
			<-startCh
			end := sp.Coordinator(aligned, func(v int64) { gate.Sync(n, v) })
			ends[n] = end
			until.Store(max(aligned+sp.MeasureNS, end))
			gate.Done(n)
		}()
	}

	warmed.Wait()
	for _, v := range warmV {
		aligned = max(aligned, v)
	}
	if sp.Aligned != nil {
		sp.Aligned()
	}
	deadline := aligned + sp.MeasureNS
	until.Store(deadline)
	// Every participant rejoins the gate before any runs on, so neither a
	// worker nor the coordinator can outrun one still parked.
	for i := range ws {
		gate.Resume(i, aligned+jitter(i))
	}
	if sp.Coordinator != nil {
		until.Store(math.MaxInt64)
		gate.Resume(n, aligned)
	}
	close(startCh)
	done.Wait()
	end := deadline
	for _, v := range ends {
		end = max(end, v)
	}
	return recs, end
}

// jitter staggers worker i's start within ~one operation so the window
// doesn't open with a thundering herd on the hottest key — on real
// hardware threads are in arbitrary phases when a measurement window
// opens.
func jitter(i int) int64 { return int64(i * 9973 % 10_000) }

// TreeExp is one tree benchmark configuration. The windowed experiments
// (faults, elastic, replica) build their fixtures from one too.
type TreeExp struct {
	Name string

	NumMS        int
	NumCS        int
	ThreadsPerCS int

	// Keys is the key-space size; the harness bulkloads 80% of it (the
	// paper's 1-billion-key space is scaled down by default, DESIGN.md §2).
	Keys uint64

	Mix       workload.Mix
	Dist      workload.Dist
	Theta     float64
	RangeSpan int

	Tree core.Config

	// WarmupOps is executed per thread before measurement to fill index
	// caches and reach steady state.
	WarmupOps int

	// MeasureNS is the virtual-time measurement window. All threads start
	// it together (clocks aligned to the slowest warmup finisher) and issue
	// operations until their clocks pass the deadline; throughput is ops
	// completed divided by the window, exactly as a wall-clock-windowed
	// measurement on real hardware. A fixed per-thread op quota would
	// instead let the system drain as threads finish, hiding convoy
	// effects. 0 means 10 ms.
	MeasureNS int64

	// BatchSize, when > 1, makes workers issue their operations through the
	// batch planner (core.Handle.Exec) in groups of this size; 0 or 1
	// issues operations one at a time.
	BatchSize int

	// PipelineDepth, when > 1, issues operations through the async
	// executor with that many outstanding operations per thread, so round
	// trips overlap on each worker's virtual timeline (latency hiding).
	// Composes with BatchSize: pipelined workers submit batches through
	// Async.Exec, overlapping the batch's leaf groups.
	PipelineDepth int
}

// Defaults fills unset fields with the paper's setup (8 MS, 8 CS, 22
// threads/CS) at a simulator-friendly scale.
func (e TreeExp) Defaults() TreeExp {
	if e.NumMS == 0 {
		e.NumMS = 8
	}
	if e.NumCS == 0 {
		e.NumCS = 8
	}
	if e.ThreadsPerCS == 0 {
		e.ThreadsPerCS = 22
	}
	if e.Keys == 0 {
		e.Keys = 2 << 20
	}
	if e.Theta == 0 {
		e.Theta = 0.99
	}
	if e.RangeSpan == 0 {
		e.RangeSpan = 100
	}
	if e.WarmupOps == 0 {
		e.WarmupOps = 300
	}
	if e.MeasureNS == 0 {
		e.MeasureNS = 10_000_000
	}
	return e
}

// fixture is one bulkloaded tree and its workers' generators: what every
// generated-op experiment runs its windows over.
type fixture struct {
	e    TreeExp // defaulted
	cl   *cluster.Cluster
	tr   *core.Tree
	gens []*workload.Generator
	// seed is the next handle's seed, and clock the next window's start.
	seed  int
	clock int64
}

// newFixture builds e's cluster, replicated at factor, bulkloads 80% of
// its key space with nonzero derived values and seeds one generator per
// worker. spareMS > 0 caps online scale-out at that many servers beyond
// e.NumMS; 0 keeps the cluster's default headroom.
func newFixture(e TreeExp, spareMS, factor int) *fixture {
	e = e.Defaults()
	if err := e.Mix.Validate(); err != nil {
		panic(err)
	}
	maxMS := 0
	if spareMS > 0 {
		maxMS = e.NumMS + spareMS
	}
	cl := cluster.New(cluster.Config{NumMS: e.NumMS, NumCS: e.NumCS, MaxMS: maxMS, ReplicationFactor: factor})
	tr := core.New(cl, e.Tree)

	wcfg := workload.DefaultConfig(e.Mix, e.Dist, e.Keys)
	wcfg.Theta = e.Theta
	wcfg.RangeSpan = e.RangeSpan
	kvs := make([]layout.KV, wcfg.LoadedKeys())
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: bulkValue(k)}
	}
	if err := tr.Bulkload(kvs); err != nil {
		panic(err)
	}

	baseGen := workload.NewGenerator(wcfg, 0x5eed)
	gens := make([]*workload.Generator, e.NumCS*e.ThreadsPerCS)
	for i := range gens {
		gens[i] = workload.NewGeneratorFrom(baseGen, uint64(i)+1)
	}
	return &fixture{e: e, cl: cl, tr: tr, gens: gens}
}

// level1Bytes is the 100 % point of the cache-size sweeps: the bytes the
// index cache takes to hold every level-1 node of e's freshly bulkloaded
// tree (core.TreeStats.Level1Bytes), measured on a tree of e's own keys,
// format and memory servers, since a routing copy's size depends on where
// its children were placed.
func level1Bytes(e TreeExp) int64 {
	defer debug.FreeOSMemory()
	return newFixture(e, 0, 0).tr.Stats().Level1Bytes
}

// threads is the fixture's worker count.
func (fx *fixture) threads() int { return len(fx.gens) }

// handle creates a thread handle on compute server cs with the next seed.
func (fx *fixture) handle(cs int) *core.Handle {
	h := fx.tr.NewHandle(cs, fx.seed)
	fx.seed++
	return h
}

// worker builds worker i of the fixture's workload on a fresh handle.
func (fx *fixture) worker(i int) Worker {
	return fx.opWorker(fx.handle(i%fx.e.NumCS), i)
}

// opWorker is worker i's generated workload on h: one operation at a time,
// or e.BatchSize per batch through the planner, pipelined at
// e.PipelineDepth.
func (fx *fixture) opWorker(h *core.Handle, i int) Worker {
	g := fx.gens[i]
	w := Worker{C: h.C, Rec: &h.Rec, Pace: &h.Pace}
	var as *core.Async
	if d := fx.e.PipelineDepth; d > 1 {
		as = h.NewAsync(d)
		w.Flush = as.Flush
	}
	switch bs := fx.e.BatchSize; {
	case bs > 1:
		var sc batchScratch
		w.Issue = func() int { sc.exec(h, as, g.NextBatch(bs)); return bs }
	case as != nil:
		w.Issue = func() int { doOpAsync(as, g.Next()); return 1 }
	default:
		w.Issue = func() int { doOp(h, g.Next()); return 1 }
	}
	return w
}

// window runs one window of fresh workers from the fixture's clock, with
// an optional coordinator, and moves the clock past the window's end.
func (fx *fixture) window(worker func(int) Worker, coord func(int64, func(int64)) int64) ([]*stats.Recorder, int64) {
	recs, end := Run(Spec{
		Threads: fx.threads(), Worker: worker, Start: fx.clock,
		MeasureNS: fx.e.MeasureNS, Coordinator: coord,
	})
	fx.clock = end + 10_000
	return recs, end
}

// killAtThird is the coordinator of a kill window: it arms kill one third
// into the window and returns. No worker passes the window's first gate
// windows before it returns, so the kill fires at its virtual time
// whatever order the goroutines run in.
func killAtThird(measureNS int64, kill func(at int64)) func(int64, func(int64)) int64 {
	return func(start int64, _ func(int64)) int64 {
		kill(start + measureNS/3)
		return start
	}
}

// TreeResult is the outcome of one tree experiment.
type TreeResult struct {
	Name string
	// Mops is throughput in million operations per second (virtual time).
	Mops float64
	// P50, P90, P99 are latency percentiles over all operations, in
	// virtual nanoseconds.
	P50, P90, P99 int64
	// Rec is the merged per-thread recorder with all internal metrics.
	Rec *stats.Recorder
	// HitRatio is the index-cache hit ratio during measurement.
	HitRatio float64
	// CacheEvictions totals budget-pressure evictions across every compute
	// server's cache (whole run, including warmup).
	CacheEvictions int64
	// Handovers is the number of lock acquisitions satisfied by handover.
	Handovers int64
	// MeasuredLockAcquisitions is the lock manager's acquisition count over
	// the measurement window only (the harness snapshots the counter at the
	// warmup barrier, when every thread is parked).
	MeasuredLockAcquisitions int64
	// RoundTripsPerOp and LockAcqPerOp are measured-window network round
	// trips and lock acquisitions per completed operation — the
	// amortization metrics of the batch pipeline.
	RoundTripsPerOp float64
	LockAcqPerOp    float64
}

// RunTree executes one tree experiment.
func RunTree(e TreeExp) TreeResult {
	// Each run materializes a whole cluster (tens of MB of simulated DRAM
	// plus per-thread state); sweeps run hundreds of these back-to-back,
	// so return the previous run's pages to the OS eagerly.
	defer debug.FreeOSMemory()
	fx := newFixture(e, 0, 0)
	e = fx.e
	var warmupAcq int64
	recs, _ := Run(Spec{
		Threads: fx.threads(), Worker: fx.worker,
		WarmupOps: e.WarmupOps, MeasureNS: e.MeasureNS,
		// Every thread is parked at the warmup barrier: snapshot the lock
		// manager here so the result can report measurement-window deltas.
		Aligned: func() { warmupAcq = fx.tr.LockStats().Acquisitions.Load() },
	})

	merged := stats.NewRecorder()
	// Throughput sums per-thread rates over each thread's actual issuing
	// interval. Threads stop issuing at the deadline but complete their
	// final unit of work — a whole batch when BatchSize > 1 — so dividing
	// total ops by the fixed window would credit the overshoot ops without
	// their time, biasing large-batch runs upward. Per-thread intervals
	// charge numerator and denominator together.
	mops := intervalMops(recs, merged)
	var evictions int64
	for cs := 0; cs < e.NumCS; cs++ {
		evictions += fx.tr.Cache(cs).Evictions()
	}
	res := TreeResult{
		Name:                     e.Name,
		Mops:                     mops,
		CacheEvictions:           evictions,
		P50:                      merged.AllLatency.Percentile(50),
		P90:                      merged.AllLatency.Percentile(90),
		P99:                      merged.AllLatency.Percentile(99),
		Rec:                      merged,
		HitRatio:                 merged.HitRatio(),
		Handovers:                merged.Handovers,
		MeasuredLockAcquisitions: fx.tr.LockStats().Acquisitions.Load() - warmupAcq,
	}
	if ops := merged.TotalOps(); ops > 0 {
		res.RoundTripsPerOp = float64(merged.RoundTrips) / float64(ops)
		res.LockAcqPerOp = float64(res.MeasuredLockAcquisitions) / float64(ops)
	}
	return res
}

// intervalMops merges recs into merged and sums their per-thread rates,
// each over the thread's own issuing interval.
func intervalMops(recs []*stats.Recorder, merged *stats.Recorder) float64 {
	var mops float64
	for _, r := range recs {
		merged.Merge(r)
		if d := r.FinishV - r.StartV; d > 0 {
			mops += stats.ThroughputMops(r.TotalOps(), d)
		}
	}
	return mops
}

// RunTreeN runs the experiment `runs` times and averages the headline
// metrics (the paper reports the average of 3 or more runs, §5.1.3). The
// returned result carries the last run's recorder for internal metrics.
func RunTreeN(e TreeExp, runs int) TreeResult {
	if runs <= 1 {
		return RunTree(e)
	}
	var acc TreeResult
	for i := 0; i < runs; i++ {
		r := RunTree(e)
		acc.Name = r.Name
		acc.Mops += r.Mops / float64(runs)
		acc.P50 += r.P50 / int64(runs)
		acc.P90 += r.P90 / int64(runs)
		acc.P99 += r.P99 / int64(runs)
		acc.HitRatio += r.HitRatio / float64(runs)
		acc.CacheEvictions += r.CacheEvictions / int64(runs)
		acc.Handovers += r.Handovers / int64(runs)
		acc.RoundTripsPerOp += r.RoundTripsPerOp / float64(runs)
		acc.LockAcqPerOp += r.LockAcqPerOp / float64(runs)
		acc.Rec = r.Rec
		acc.MeasuredLockAcquisitions = r.MeasuredLockAcquisitions
	}
	return acc
}

// batchScratch is one worker's recycled batch buffers: the translated op
// slice and the results slice ExecInto fills. Reusing them across every
// batch a worker issues keeps steady-state batch execution allocation-free,
// matching the zero-alloc discipline of the paths under measurement (a
// harness that allocates per batch would hide hot-path regressions behind
// its own GC noise).
type batchScratch struct {
	cops    []core.Op
	results []core.OpResult
}

// exec runs one generated batch through the mixed-op planner — pipelined
// when as is non-nil, synchronous otherwise — recycling the scratch buffers.
func (sc *batchScratch) exec(h *core.Handle, as *core.Async, ops []workload.Op) {
	sc.cops = appendCoreOps(sc.cops[:0], ops)
	if cap(sc.results) < len(sc.cops) {
		sc.results = make([]core.OpResult, 2*len(sc.cops))
	}
	sc.results = sc.results[:len(sc.cops)]
	if as != nil {
		as.ExecInto(sc.cops, sc.results)
	} else {
		h.ExecInto(sc.cops, sc.results)
	}
}

// appendCoreOps translates one generated batch to the unified operation
// model, appending to out.
func appendCoreOps(out []core.Op, ops []workload.Op) []core.Op {
	for _, op := range ops {
		switch op.Kind {
		case workload.Lookup:
			out = append(out, core.Op{Kind: stats.OpLookup, Key: op.Key})
		case workload.Insert:
			out = append(out, core.Op{Kind: stats.OpInsert, Key: op.Key, Value: op.Value})
		case workload.Delete:
			out = append(out, core.Op{Kind: stats.OpDelete, Key: op.Key})
		case workload.Range:
			out = append(out, core.Op{Kind: stats.OpRange, Key: op.Key, Span: op.Span})
		}
	}
	return out
}

// doOpAsync submits one generated operation to the pipelined executor.
func doOpAsync(as *core.Async, op workload.Op) {
	switch op.Kind {
	case workload.Lookup:
		as.SubmitOp(core.Op{Kind: stats.OpLookup, Key: op.Key})
	case workload.Insert:
		as.SubmitOp(core.Op{Kind: stats.OpInsert, Key: op.Key, Value: op.Value})
	case workload.Delete:
		as.SubmitOp(core.Op{Kind: stats.OpDelete, Key: op.Key})
	case workload.Range:
		as.SubmitOp(core.Op{Kind: stats.OpRange, Key: op.Key, Span: op.Span})
	}
}

// doOp dispatches one generated operation to the handle.
func doOp(h *core.Handle, op workload.Op) {
	switch op.Kind {
	case workload.Lookup:
		h.Lookup(op.Key)
	case workload.Insert:
		h.Insert(op.Key, op.Value)
	case workload.Delete:
		h.Delete(op.Key)
	case workload.Range:
		h.Range(op.Key, op.Span)
	}
}

// bulkValue derives the deterministic bulkloaded value of a key (used by
// correctness checks in tests).
func bulkValue(k uint64) uint64 {
	v := k * 0x9e3779b97f4a7c15
	if v == 0 {
		v = 1
	}
	return v
}

// MopsString formats a throughput for tables.
func MopsString(m float64) string { return fmt.Sprintf("%.2f", m) }

// USString formats a ns latency in microseconds for tables.
func USString(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1000) }
