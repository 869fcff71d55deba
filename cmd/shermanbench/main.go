// Command shermanbench regenerates every table and figure of the paper's
// evaluation (§5) on the simulated fabric, plus the repo's own batch,
// pipeline and fault experiments. Results print as aligned text tables;
// -json writes the machine-readable report (the committed BENCH_N.json
// files are captured runs) and -baseline gates against bench/baseline.json.
//
// Usage:
//
//	shermanbench -exp all
//	shermanbench -exp fig10 -keys 4194304 -ops 2000 -threads 22
//	shermanbench -exp batch,pipeline,faults -quick -json BENCH.json -baseline bench/baseline.json
//
// Experiments: table1 table2 fig2 fig3 fig10 fig11 fig12 fig13 fig14
// fig15a fig15b fig15c fig16 extras ycsb batch pipeline faults elastic
// cache alloc replica tcp tcpfault tcppipe all quick (tcp, tcpfault and
// tcppipe spawn real shermand processes and are not part of all)
//
// Machine-readable output and CI gating:
//
//	-json PATH            write the run's structured Report (tables + typed
//	                      metrics) to PATH — the BENCH_*.json artifact
//	-baseline PATH        after the run, fail (exit 1) when a batch or
//	                      pipeline metric regressed more than -tolerance
//	                      against the committed baseline report
//	-write-baseline PATH  write the fresh metrics as the new baseline
//	-tolerance F          regression band (default 0.15 = 15%)
//
// -check adds experiment-specific hard assertions: with -exp pipeline, the
// latency-hiding smoke (depth-4 beats depth-1); with -exp faults, the
// crash-recovery smoke (a compute server killed mid-write leaves a
// reclaimable lock, and the tree validates after recovery); with -exp
// elastic, the scale-out gate (adding a memory server mid-run at least
// halves the per-MS inbound-load skew and steady-state throughput reaches
// 95% of a cluster provisioned at the larger size up front); with -exp
// cache, the unified-cache gate (speculative leaf-direct reads cut round
// trips per op well below cache-off, speculation validates >= 90% of the
// time, and the multi-level cache beats the flat level-1-only baseline at
// the same constrained budget); with -exp alloc, the zero-allocation gate
// (steady-state cached gets and puts measure zero heap allocations per
// operation against hard per-probe budgets); with -exp replica, the
// replication gate (a memory server killed mid-window loses zero acked
// writes — each tracked key reachable exactly once after failover and
// re-replication — and factor-2 steady-state throughput stays within 90%
// of the unreplicated control); with -exp tcpfault, the TCP fault gate (a
// real shermand process SIGKILLed mid-window over the TCP transport loses
// zero acked writes, at least one chunk fails over, and re-replication
// restores full redundancy on the survivors); with -exp tcppipe, the
// pipelining gate (at depth 8 both the client and the server put at least
// 4 frames into each write syscall, and depth-8 pipelined read verbs over
// real sockets take at most 1/1.5 of depth-1's us/verb).
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

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1,table2,fig2,fig3,fig10,fig11,fig12,fig13,fig14,fig15a,fig15b,fig15c,fig16,extras,ycsb,batch,pipeline,faults,elastic,cache,alloc,replica,tcp,tcpfault,tcppipe,all,quick; tcp, tcpfault and tcppipe spawn real shermand processes and are not part of all)")
		keys     = flag.Uint64("keys", 0, "key-space size (0 = scale default)")
		windowMS = flag.Int("window", 0, "virtual measurement window in ms (0 = scale default)")
		warmup   = flag.Int("warmup", 0, "warmup ops per thread (0 = scale default)")
		threads  = flag.Int("threads", 0, "client threads per compute server (0 = scale default)")
		quick    = flag.Bool("quick", false, "use the quick (CI-sized) scale")
		runs     = flag.Int("runs", 0, "average each tree experiment over this many runs (0 = scale default)")
		check    = flag.Bool("check", false, "run the hard assertions of the selected experiments (pipeline, faults)")
		jsonOut  = flag.String("json", "", "write the structured run report to this path")
		baseline = flag.String("baseline", "", "regression-gate the run against this committed baseline report")
		writeBas = flag.String("write-baseline", "", "write the fresh metrics as the new baseline report")
		tol      = flag.Float64("tolerance", 0.15, "regression tolerance band (fraction of baseline Mops)")
	)
	flag.Parse()

	s := bench.FullScale()
	if *quick || *exp == "quick" {
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

	ids := strings.Split(*exp, ",")
	if *exp == "all" || *exp == "quick" {
		ids = []string{"table1", "table2", "fig2", "fig3", "fig10", "fig11",
			"fig12", "fig13", "fig14", "fig15a", "fig15b", "fig15c", "fig16",
			"batch", "pipeline", "faults", "elastic", "cache", "alloc", "replica"}
	}
	fmt.Printf("# shermanbench: keys=%d threads/CS=%d window=%dms GOMAXPROCS=%d\n\n",
		s.Keys, s.ThreadsPerCS, s.MeasureNS/1_000_000, runtime.GOMAXPROCS(0))

	report := bench.NewReport(*exp, *quick || *exp == "quick", s)
	col := &bench.Collector{}
	var churn *bench.FaultResult
	var elastic *bench.ElasticResult
	var cacheRes *bench.CacheResult
	var replicaRes *bench.ReplicaResult
	var tcpFaultRes *tcpFaultResult
	var tcpPipeRes *tcpPipeResult
	for _, id := range ids {
		run(strings.TrimSpace(id), s, col, report, &churn, &elastic, &cacheRes, &replicaRes, &tcpFaultRes, &tcpPipeRes)
	}
	report.Metrics = col.Metrics

	if *jsonOut != "" {
		if err := report.Write(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d metrics, %d tables)\n", *jsonOut, len(report.Metrics), len(report.Tables))
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
		if err := runChecks(ids, s, col, churn, elastic, cacheRes, replicaRes, tcpFaultRes, tcpPipeRes); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runChecks executes the hard assertions of the selected experiments,
// evaluating the results this invocation already produced (the pipeline
// sweep's metrics, the fault churn's rounds) rather than re-running them.
func runChecks(ids []string, s bench.Scale, col *bench.Collector, churn *bench.FaultResult, elastic *bench.ElasticResult, cacheRes *bench.CacheResult, replicaRes *bench.ReplicaResult, tcpFaultRes *tcpFaultResult, tcpPipeRes *tcpPipeResult) error {
	for _, id := range ids {
		switch strings.TrimSpace(id) {
		case "pipeline":
			if err := bench.PipelineGate(col.Metrics); err != nil {
				return err
			}
			fmt.Println("pipeline gate: depth-4 beats depth-1 for put and get (hiding > 1.5x)")
		case "faults":
			if err := bench.FaultGate(s, churn); err != nil {
				return err
			}
			fmt.Println("fault gate: mid-write crash reclaimed and recovered; churn rounds validate")
		case "elastic":
			if err := bench.ElasticGate(elastic); err != nil {
				return err
			}
			fmt.Println("elastic gate: skew halved after scale-out; steady state within 95% of the provisioned control")
		case "cache":
			if err := bench.CacheGate(cacheRes); err != nil {
				return err
			}
			fmt.Println("cache gate: leaf-direct speculation cuts RT/op vs cache-off; unified multi-level beats flat level-1-only")
		case "alloc":
			if err := bench.AllocGate(col.Metrics); err != nil {
				return err
			}
			fmt.Println("alloc gate: steady-state hot paths within hard budgets (cached get and put at 0 allocs/op)")
		case "replica":
			if err := bench.ReplicaGate(replicaRes); err != nil {
				return err
			}
			fmt.Println("replica gate: zero acked writes lost to the mid-window MS kill, all reachable exactly once; factor-2 steady state within 90% of control")
		case "tcpfault":
			if err := tcpFaultGate(tcpFaultRes); err != nil {
				return err
			}
			fmt.Println("tcpfault gate: zero acked writes lost to the SIGKILLed shermand, all reachable exactly once; failover real, redundancy restored")
		case "tcppipe":
			if err := tcpPipeGate(tcpPipeRes); err != nil {
				return err
			}
			fmt.Printf("tcppipe gate: depth-8 frames per write %.1f client / %.1f server (>= %.0f), %.1f us/verb vs %.1f at depth 1 (%.2fx, >= %.1fx)\n",
				tcpPipeRes.ClientFramesPerWrite[8], tcpPipeRes.ServerFramesPerWrite[8], tpMinFramesPerWrite,
				1/tcpPipeRes.VerbMops[8], 1/tcpPipeRes.VerbMops[1], tcpPipeRes.VerbMops[8]/tcpPipeRes.VerbMops[1], tpMinDepthSpeedup)
		}
	}
	return nil
}

func run(id string, s bench.Scale, col *bench.Collector, report *bench.Report, churn **bench.FaultResult, elastic **bench.ElasticResult, cacheRes **bench.CacheResult, replicaRes **bench.ReplicaResult, tcpFaultRes **tcpFaultResult, tcpPipeRes **tcpPipeResult) {
	start := time.Now()
	var tables []*bench.Table
	switch id {
	case "table1":
		tables = []*bench.Table{bench.Table1(s)}
	case "table2":
		tables = []*bench.Table{bench.Table2()}
	case "fig2":
		tables = []*bench.Table{bench.Fig2(s)}
	case "fig3":
		tables = []*bench.Table{bench.Fig3(s)}
	case "fig10":
		tables = bench.Ablation(s, workload.Zipfian)
	case "fig11":
		tables = bench.Ablation(s, workload.Uniform)
	case "fig12":
		tables = []*bench.Table{bench.Fig12(s)}
	case "fig13":
		tables = bench.Fig13(s)
	case "fig14":
		tables = bench.Fig14(s)
	case "fig15a":
		tables = []*bench.Table{bench.Fig15KeySize(s, workload.Uniform)}
	case "fig15b":
		tables = []*bench.Table{bench.Fig15KeySize(s, workload.Zipfian)}
	case "fig15c":
		tables = []*bench.Table{bench.Fig15Cache(s)}
	case "fig16":
		tables = []*bench.Table{bench.Fig16(s)}
	case "extras":
		tables = bench.Extras(s)
	case "ycsb":
		tables = []*bench.Table{bench.YCSBSuite(s)}
	case "batch":
		tables = bench.BatchTables(s, col)
	case "pipeline":
		tables = bench.PipelineTables(s, col)
	case "faults":
		t, r := bench.FaultChurn(s, col)
		tables = []*bench.Table{t}
		*churn = &r
	case "elastic":
		t, r := bench.Elastic(s, col)
		tables = []*bench.Table{t}
		*elastic = &r
	case "cache":
		t, r := bench.CacheSweep(s, col)
		tables = []*bench.Table{t}
		*cacheRes = r
	case "alloc":
		tables = bench.AllocTables(s, col)
	case "replica":
		t, r := bench.Replica(s, col)
		tables = []*bench.Table{t}
		*replicaRes = r
	case "tcp":
		// The differential is its own hard gate: any oracle mismatch (or a
		// failed launch) fails the run regardless of -check.
		t, err := runTCPDifferential()
		if t != nil {
			tables = []*bench.Table{t}
		}
		if err != nil {
			for _, t := range tables {
				fmt.Println(t)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "tcpfault":
		// A run error (failed launch, worker verb error) fails regardless of
		// -check; the semantic gate itself runs under -check.
		t, r, err := runTCPFault()
		if t != nil {
			tables = []*bench.Table{t}
		}
		*tcpFaultRes = r
		if err != nil {
			for _, t := range tables {
				fmt.Println(t)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "tcppipe":
		// A run error (failed launch, worker verb error) fails regardless of
		// -check; the scaling gate itself runs under -check.
		ts, r, err := runTCPPipe(col)
		tables = ts
		*tcpPipeRes = r
		if err != nil {
			for _, t := range tables {
				fmt.Println(t)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
		os.Exit(2)
	}
	for _, t := range tables {
		fmt.Println(t)
		report.Tables = append(report.Tables, t.ToJSON())
	}
	fmt.Printf("(%s took %v)\n\n", id, time.Since(start).Round(time.Millisecond))
}
