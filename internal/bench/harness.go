// Package bench is the evaluation harness: one driver per table and figure
// of the paper's §5, runnable through cmd/shermanbench or the root-level
// testing.B benchmarks.
//
// Each driver builds a cluster, bulkloads a tree, runs a warmup phase to
// fill the index caches, aligns all thread clocks (with per-thread jitter),
// then measures over a fixed virtual-time window: threads issue operations
// until their clocks pass the deadline, and throughput is completed
// operations divided by the window — the same windowed measurement a real
// testbed uses, and the only form under which lock-convoy equilibria are
// visible. Latencies come from the merged per-thread recorders.
package bench

import (
	"fmt"
	"runtime/debug"
	"sync"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/workload"
)

// Pacing parameters for sim.Gate: workers may run at most gateSlack windows
// of gateWindowNS virtual nanoseconds ahead of the slowest active worker.
const (
	gateWindowNS = 20_000
	gateSlack    = 2
)

// TreeExp is one tree benchmark configuration.
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

	// Workload, when non-nil, overrides the Mix/Dist/Theta/RangeSpan-derived
	// configuration entirely (used for the YCSB presets, whose semantics —
	// latest-biased reads, read-modify-write — go beyond those fields).
	Workload *workload.Config

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

	// MaxOpsPerThread bounds a worker's measured operations as a wall-time
	// safety valve (0 = 1e6).
	MaxOpsPerThread int

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

	Params sim.Params // zero = defaults
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
	if e.MaxOpsPerThread == 0 {
		e.MaxOpsPerThread = 1_000_000
	}
	if e.Params.RTTNS == 0 {
		e.Params = sim.DefaultParams()
	}
	return e
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
	// LockAcquisitions, LockRetries and LockMaxWaiters expose the lock
	// manager's aggregate counters (whole run, including warmup).
	LockAcquisitions  int64
	LockRetries       int64
	LockMaxWaiters    int64
	LockGrants        int64
	LockGrantSpinners int64

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
	e = e.Defaults()
	if err := e.Mix.Validate(); err != nil {
		panic(err)
	}

	cl := cluster.New(cluster.Config{NumMS: e.NumMS, NumCS: e.NumCS, Params: e.Params})
	tr := core.New(cl, e.Tree)

	// Bulkload keys 1..loaded with nonzero derived values.
	wcfg := workload.DefaultConfig(e.Mix, e.Dist, e.Keys)
	wcfg.Theta = e.Theta
	wcfg.RangeSpan = e.RangeSpan
	if e.Workload != nil {
		wcfg = *e.Workload
	}
	loaded := wcfg.LoadedKeys()
	kvs := make([]layout.KV, loaded)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: bulkValue(k)}
	}
	tr.Bulkload(kvs)

	baseGen := workload.NewGenerator(wcfg, 0x5eed)

	n := e.NumCS * e.ThreadsPerCS
	handles := make([]*core.Handle, n)
	gens := make([]*workload.Generator, n)
	for i := 0; i < n; i++ {
		handles[i] = tr.NewHandle(i%e.NumCS, i)
		gens[i] = workload.NewGeneratorFrom(baseGen, uint64(i)+1)
	}

	startV := make([]int64, n)
	recs := make([]*stats.Recorder, n)
	gate := sim.NewGate(gateWindowNS, gateSlack, n)

	var warmDone, measureDone sync.WaitGroup
	warmDone.Add(n)
	measureDone.Add(n)
	startCh := make(chan int64) // closed after carrying maxStart by value

	// issue runs one unit of work — a single operation or one batch,
	// synchronous or pipelined — and returns the number of operations it
	// completed.
	batchSize := e.BatchSize
	if batchSize < 1 {
		batchSize = 1
	}
	issue := func(h *core.Handle, as *core.Async, g *workload.Generator, sc *batchScratch) int {
		switch {
		case as != nil && batchSize > 1:
			sc.exec(h, as, g.NextBatch(batchSize))
			return batchSize
		case as != nil:
			doOpAsync(as, g.Next())
			return 1
		case batchSize > 1:
			sc.exec(h, nil, g.NextBatch(batchSize))
			return batchSize
		default:
			doOp(h, g.Next())
			return 1
		}
	}

	var maxStart int64
	for i := 0; i < n; i++ {
		go func(i int) {
			defer measureDone.Done()
			defer gate.Done(i)
			h, g := handles[i], gens[i]
			var sc batchScratch
			var as *core.Async
			if e.PipelineDepth > 1 {
				as = h.NewAsync(e.PipelineDepth)
			}
			// Batch executors pace between leaf groups so a long batch
			// cannot carry this thread's clock outside the gate window.
			h.Pace = func(v int64) { gate.Sync(i, v) }
			for j := 0; j < e.WarmupOps; j += issue(h, as, g, &sc) {
				gate.Sync(i, h.C.Now())
			}
			if as != nil {
				as.Flush()
			}
			startV[i] = h.C.Now()
			gate.Park(i) // frozen clock must not stall threads still warming up
			warmDone.Done()
			<-startCh // all threads aligned to the slowest warmup clock
			// Jitter each thread's start within ~one operation so the
			// window doesn't open with a thundering herd on the hottest
			// key — on real hardware threads are in arbitrary phases when
			// a measurement window opens.
			start := maxStart + int64(i*9973%10_000)
			h.C.AdvanceTo(start)
			gate.Resume(i, start)
			rec := stats.NewRecorder()
			rec.StartV = start
			h.Rec = rec
			rt0 := h.Metrics().RoundTrips
			deadline := maxStart + e.MeasureNS
			for j := 0; h.C.Now() < deadline && j < e.MaxOpsPerThread; j += issue(h, as, g, &sc) {
				// Pace workers so virtual clocks stay within a bounded
				// window of each other (see sim.Gate).
				gate.Sync(i, h.C.Now())
			}
			if as != nil {
				as.Flush() // fold outstanding completions into the makespan
			}
			rec.RoundTrips = h.Metrics().RoundTrips - rt0
			rec.FinishV = h.C.Now()
			recs[i] = rec
		}(i)
	}
	warmDone.Wait()
	// Every thread is parked at the warmup barrier: snapshot the lock
	// manager here so the result can report measurement-window deltas.
	warmupAcq := tr.LockStats().Acquisitions.Load()
	for _, v := range startV {
		if v > maxStart {
			maxStart = v
		}
	}
	close(startCh)
	measureDone.Wait()

	merged := stats.NewRecorder()
	// Throughput sums per-thread rates over each thread's actual issuing
	// interval. Threads stop issuing at the deadline but complete their
	// final unit of work — a whole batch when BatchSize > 1 — so dividing
	// total ops by the fixed window would credit the overshoot ops without
	// their time, biasing large-batch runs upward. Per-thread intervals
	// charge numerator and denominator together.
	var mops float64
	for _, r := range recs {
		merged.Merge(r)
		if d := r.FinishV - r.StartV; d > 0 {
			mops += stats.ThroughputMops(r.TotalOps(), d)
		}
	}
	var evictions int64
	for cs := 0; cs < e.NumCS; cs++ {
		evictions += tr.Cache(cs).Evictions()
	}
	ls := tr.LockStats()
	res := TreeResult{
		Name:              e.Name,
		Mops:              mops,
		CacheEvictions:    evictions,
		P50:               merged.AllLatency.Percentile(50),
		P90:               merged.AllLatency.Percentile(90),
		P99:               merged.AllLatency.Percentile(99),
		Rec:               merged,
		HitRatio:          merged.HitRatio(),
		Handovers:         merged.Handovers,
		LockAcquisitions:  ls.Acquisitions.Load(),
		LockRetries:       ls.GlobalRetries.Load(),
		LockMaxWaiters:    ls.MaxWaiters.Load(),
		LockGrants:        ls.Grants.Load(),
		LockGrantSpinners: ls.GrantSpinnersSum.Load(),

		MeasuredLockAcquisitions: ls.Acquisitions.Load() - warmupAcq,
	}
	if ops := merged.TotalOps(); ops > 0 {
		res.RoundTripsPerOp = float64(merged.RoundTrips) / float64(ops)
		res.LockAcqPerOp = float64(res.MeasuredLockAcquisitions) / float64(ops)
	}
	return res
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
		acc.LockAcquisitions = r.LockAcquisitions
		acc.LockRetries = r.LockRetries
		acc.LockMaxWaiters = r.LockMaxWaiters
		acc.LockGrants = r.LockGrants
		acc.LockGrantSpinners = r.LockGrantSpinners
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
// model, appending to dst, expanding YCSB-F read-modify-writes into an
// explicit lookup ahead of each update (the planner's stable sort keeps the
// pair ordered on its key).
func appendCoreOps(out []core.Op, ops []workload.Op) []core.Op {
	for _, op := range ops {
		switch op.Kind {
		case workload.Lookup:
			out = append(out, core.Op{Kind: stats.OpLookup, Key: op.Key})
		case workload.Insert:
			if op.RMW {
				out = append(out, core.Op{Kind: stats.OpLookup, Key: op.Key})
			}
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
		if op.RMW {
			// YCSB-F: the read pipelines ahead of its update; same-key
			// ordering in the executor keeps the pair dependent.
			as.SubmitOp(core.Op{Kind: stats.OpLookup, Key: op.Key})
		}
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
		if op.RMW {
			h.Lookup(op.Key) // YCSB-F: read the record before updating it
		}
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
