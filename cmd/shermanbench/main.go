// Command shermanbench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated fabric, plus the repo's own experiments:
// batching, pipelining, faults, elasticity, the index cache, allocations,
// replication, and two that spawn real shermand processes. Results print as
// aligned text tables; -json writes the machine-readable report (the
// committed BENCH_N.json files are captured runs) and -baseline gates
// against bench/baseline.json.
//
// Usage:
//
//	shermanbench -exp all
//	shermanbench -exp fig10 -keys 4194304 -threads 22
//	shermanbench -exp batch,pipeline,faults -quick -json BENCH.json -baseline bench/baseline.json
//
// Every experiment is one entry of the experiments registry below; -h lists
// their ids and, for -check, the hard gate each gated experiment asserts.
//
// Machine-readable output and CI gating:
//
//	-json PATH            write the run's structured Report (tables + typed
//	                      metrics) to PATH — the BENCH_*.json artifact
//	-baseline PATH        after the run, fail (exit 1) when a gate-marked
//	                      metric regressed more than -tolerance against
//	                      the committed baseline report
//	-write-baseline PATH  write the fresh metrics as the new baseline
//	-tolerance F          regression band (default 0.15 = 15%)
//	-check                after the run, evaluate the hard gate of every
//	                      selected gated experiment; report each failure,
//	                      then exit 1
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sherman/internal/bench"
	"sherman/internal/workload"
)

// An experiment is one -exp id. run renders its tables and adds its typed
// metrics to col; a gated experiment also returns check, which evaluates
// its gate on the result run produced. err is a failed run (a launch
// failure, a worker's verb error), fatal with or without -check.
type experiment struct {
	id   string
	all  bool   // part of -exp all
	gate string // what check asserts; empty for an ungated experiment
	run  func(s bench.Scale, col *bench.Collector) (tables []*bench.Table, check func() error, err error)
}

var experiments = []experiment{
	{id: "table1", all: true, run: one(bench.Table1)},
	{id: "table2", all: true, run: one(func(bench.Scale) *bench.Table { return bench.Table2() })},
	{id: "fig2", all: true, run: one(bench.Fig2)},
	{id: "fig3", all: true, run: one(bench.Fig3)},
	{id: "fig10", all: true, gate: "write-only: +Acquire Doorbell's median write takes one round trip fewer than +2-Level Ver's",
		run: ablation(workload.Zipfian)},
	{id: "fig11", all: true, gate: "write-only: +Acquire Doorbell's median write takes one round trip fewer than +2-Level Ver's, at no lower Mops",
		run: ablation(workload.Uniform)},
	{id: "fig12", all: true, run: one(bench.Fig12)},
	{id: "fig13", all: true, run: many(bench.Fig13)},
	{id: "fig14", all: true, run: many(bench.Fig14)},
	{id: "fig15a", all: true, run: one(func(s bench.Scale) *bench.Table { return bench.Fig15KeySize(s, workload.Uniform) })},
	{id: "fig15b", all: true, run: one(func(s bench.Scale) *bench.Table { return bench.Fig15KeySize(s, workload.Zipfian) })},
	{id: "fig15c", all: true, run: one(bench.Fig15Cache)},
	{id: "fig16", all: true, run: one(bench.Fig16)},
	{id: "batch", all: true, run: func(s bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
		return []*bench.Table{bench.BatchSweep(s, col)}, nil, nil
	}},
	{id: "pipeline", all: true, gate: "depth-4 beats depth-1 for put and get (hiding > 1.5x)",
		run: func(s bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
			return bench.PipelineTables(s, col), func() error { return bench.PipelineGate(col.Metrics) }, nil
		}},
	{id: "faults", all: true, gate: "a compute server killed at a put's commit doorbell leaves a lock a survivor reclaims, then the tree validates; every churn round validates",
		run: func(s bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
			t, r := bench.FaultChurn(s, col)
			return []*bench.Table{t}, func() error { return bench.FaultGate(s, &r) }, nil
		}},
	{id: "elastic", all: true, gate: "scale-out at least halves per-MS inbound skew; steady state within 95% of the provisioned control",
		run: func(s bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
			t, r := bench.Elastic(s, col)
			return []*bench.Table{t}, func() error { return bench.ElasticGate(&r) }, nil
		}},
	{id: "cache", all: true, gate: "leaf-direct speculation cuts RT/op vs cache-off and validates >= 90%; at a quarter of the measured level-1 set both caches hit level 1 <= 70% and unified multi-level beats flat level-1-only",
		run: func(s bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
			t, r := bench.CacheSweep(s, col)
			return []*bench.Table{t}, func() error { return bench.CacheGate(r) }, nil
		}},
	{id: "alloc", all: true, gate: "steady-state hot paths within hard budgets (cached get and put at 0 allocs/op)",
		run: func(s bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
			return bench.AllocTables(s, col), func() error { return bench.AllocGate(col.Metrics) }, nil
		}},
	{id: "replica", all: true, gate: "zero acked writes lost to the mid-window MS kill, all reachable exactly once; factor-2 steady state within 90% of control",
		run: func(s bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
			t, r := bench.Replica(s, col)
			return []*bench.Table{t}, func() error { return bench.ReplicaGate(r) }, nil
		}},
	{id: "tcpfault", run: runTCPFault,
		gate: "zero acked writes lost to a SIGKILLed shermand, all reachable exactly once; failover real, redundancy restored"},
	{id: "tcppipe", run: runTCPPipe,
		gate: fmt.Sprintf("at depth 8 client and server put >= %.0f frames into each write; depth-8 read verbs >= %.1fx depth-1's throughput",
			tpMinFramesPerWrite, tpMinDepthSpeedup)},
}

// ablation runs Figure 10 or 11 with its gate.
func ablation(dist workload.Dist) func(bench.Scale, *bench.Collector) ([]*bench.Table, func() error, error) {
	return func(s bench.Scale, _ *bench.Collector) ([]*bench.Table, func() error, error) {
		tables, writeOnly := bench.Ablation(s, dist)
		return tables, func() error { return bench.AblationGate(dist, writeOnly) }, nil
	}
}

// one adapts an ungated experiment that renders one table.
func one(f func(bench.Scale) *bench.Table) func(bench.Scale, *bench.Collector) ([]*bench.Table, func() error, error) {
	return func(s bench.Scale, _ *bench.Collector) ([]*bench.Table, func() error, error) {
		return []*bench.Table{f(s)}, nil, nil
	}
}

// many adapts an ungated experiment that renders several tables.
func many(f func(bench.Scale) []*bench.Table) func(bench.Scale, *bench.Collector) ([]*bench.Table, func() error, error) {
	return func(s bench.Scale, _ *bench.Collector) ([]*bench.Table, func() error, error) {
		return f(s), nil, nil
	}
}

// selectExperiments resolves a comma-separated -exp value, in which "all"
// stands for every experiment marked all, and rejects an unknown id.
func selectExperiments(spec string) ([]experiment, error) {
	var sel []experiment
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		n := len(sel)
		for _, e := range experiments {
			if e.id == id || (id == "all" && e.all) {
				sel = append(sel, e)
			}
		}
		if len(sel) == n {
			return nil, fmt.Errorf("unknown experiment %q; valid: %s all", id, strings.Join(ids(false), " "))
		}
	}
	return sel, nil
}

// ids lists the registry's ids in order, or only those -exp all runs.
func ids(allOnly bool) []string {
	var out []string
	for _, e := range experiments {
		if e.all || !allOnly {
			out = append(out, e.id)
		}
	}
	return out
}

func main() {
	var gateHelp strings.Builder
	for _, e := range experiments {
		if e.gate != "" {
			fmt.Fprintf(&gateHelp, "\n  %s: %s", e.id, e.gate)
		}
	}
	var (
		exp = flag.String("exp", "all", fmt.Sprintf("comma-separated experiment ids: %s; all = %s",
			strings.Join(ids(false), " "), strings.Join(ids(true), " ")))
		keys     = flag.Uint64("keys", 0, "key-space size (0 = scale default)")
		windowMS = flag.Int("window", 0, "virtual measurement window in ms (0 = scale default)")
		warmup   = flag.Int("warmup", 0, "warmup ops per thread (0 = scale default)")
		threads  = flag.Int("threads", 0, "client threads per compute server (0 = scale default)")
		quick    = flag.Bool("quick", false, "use the quick (CI-sized) scale")
		runs     = flag.Int("runs", 0, "average each tree experiment over this many runs (0 = scale default)")
		check    = flag.Bool("check", false, "after the run, evaluate the hard gate of every selected gated experiment; fail (exit 1) if any fails"+gateHelp.String())
		jsonOut  = flag.String("json", "", "write the structured run report to this path")
		baseline = flag.String("baseline", "", "regression-gate the run against this committed baseline report")
		writeBas = flag.String("write-baseline", "", "write the fresh metrics as the new baseline report")
		tol      = flag.Float64("tolerance", 0.15, "regression tolerance band (fraction of baseline Mops)")
	)
	flag.Parse()

	exps, err := selectExperiments(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	s := bench.FullScale()
	if *quick {
		s = bench.QuickScale()
	}
	if *keys != 0 {
		s.Keys = *keys
	}
	if *windowMS != 0 {
		s.MeasureNS = int64(*windowMS) * 1_000_000
	}
	if *warmup != 0 {
		s.WarmupOps = *warmup
	}
	if *threads != 0 {
		s.ThreadsPerCS = *threads
	}
	if *runs != 0 {
		s.Runs = *runs
	}
	fmt.Printf("# shermanbench: keys=%d threads/CS=%d window=%dms GOMAXPROCS=%d\n\n",
		s.Keys, s.ThreadsPerCS, s.MeasureNS/1_000_000, runtime.GOMAXPROCS(0))

	report := bench.NewReport(*exp, *quick, s)
	col := &bench.Collector{}
	type gated struct {
		experiment
		check func() error
	}
	var gates []gated
	var runErr error
	for _, e := range exps {
		start := time.Now()
		tables, check, err := e.run(s, col)
		for _, t := range tables {
			fmt.Println(t)
			report.Tables = append(report.Tables, t.ToJSON())
		}
		if err != nil {
			runErr = err
			break
		}
		fmt.Printf("(%s took %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		if check != nil {
			gates = append(gates, gated{e, check})
		}
	}
	report.Metrics = col.Metrics

	if *jsonOut != "" {
		if err := report.Write(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d metrics, %d tables)\n", *jsonOut, len(report.Metrics), len(report.Tables))
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
	if *writeBas != "" {
		// The baseline keeps only the typed metrics: it is a comparison
		// anchor, not an archive.
		base := *report
		base.Tables = nil
		if err := base.Write(*writeBas); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote baseline %s (%d metrics)\n", *writeBas, len(base.Metrics))
	}

	failed := false
	if *baseline != "" {
		base, err := bench.LoadReport(*baseline)
		if err == nil {
			err = bench.CheckRegression(base, report, *tol)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		} else {
			fmt.Printf("regression gate: within %.0f%% of %s\n", *tol*100, *baseline)
		}
	}
	if *check {
		for _, g := range gates {
			if err := g.check(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				failed = true
			} else {
				fmt.Printf("%s gate: %s\n", g.id, g.gate)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
