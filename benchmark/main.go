// Command bench is the repository's benchmark: it runs one workload, untraced
// (end-to-end metrics) or traced (per-layer metrics), checks every result
// against an oracle, prints each metric as `name value unit` and, as the
// last line of standard output, one JSON object with the verdict and the
// metrics. BENCHMARK.json at the repository root names the workloads, the
// metrics and their bounds; README.md explains them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times the untraced run sets the system up: setup_s
// is their median, and the last one is the system measured.
const setupReps = 3

// phase names what the run is doing, for the watchdog's report.
var phase atomic.Value

func main() {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, 1: traced run with per-layer metrics")
	flag.Parse()
	sp, ok := findSpec(*name)
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or bad arguments; workloads:", *name)
		for _, s := range specs {
			fmt.Fprintf(os.Stderr, " %s", s.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	phase.Store("start")
	guard(time.Duration(80+*seconds) * time.Second)

	v := run(sp, *seed, time.Duration(*seconds)*time.Second, *traced != 0)
	fmt.Printf("wall_s %.3f s\n", time.Since(processStart).Seconds())
	line, err := json.Marshal(v)
	if err != nil {
		fatalf("encoding the result: %v", err)
	}
	fmt.Println(string(line))
	if !v.Correct {
		os.Exit(1)
	}
}

// guard makes sure no shermand outlives this process and no run hangs:
// SIGINT/SIGTERM and a watchdog both end the servers before exiting. The
// watchdog exits 3 without a result line, so the run counts as failed.
func guard(limit time.Duration) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v during %v, stopping servers\n", s, phase.Load())
			stopAll()
			os.Exit(128 + int(s.(syscall.Signal)))
		case <-time.After(limit):
			fmt.Fprintf(os.Stderr, "bench: watchdog: still in phase %q after %v; run failed\n", phase.Load(), limit)
			stopAll()
			os.Exit(3)
		}
	}()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	stopAll()
	os.Exit(1)
}

// verdict is the last line of standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload end to end and returns its verdict.
func run(sp spec, seed uint64, length time.Duration, traced bool) verdict {
	phase.Store("inputs")
	kvs := bulkKVs()

	phase.Store("set-up")
	reps := setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric
	}
	var sys *system
	var setups []time.Duration
	for i := 0; i < reps; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			debug.FreeOSMemory() // the discarded deployment must not weigh on the next, nor on peak_rss_mb
		}
		t0 := time.Now()
		s, err := setUp(sp, traced, kvs)
		if err != nil {
			fatalf("set-up: %v", err)
		}
		setups = append(setups, time.Since(t0))
		sys = s
	}
	defer sys.close()
	kvs = nil // 25 MB the window's heap high-water mark should not depend on

	out := runWindow(sys, seed, length)

	phase.Store("checks")
	final := sys.treeStats()
	tree := final
	if out.cntTree != nil {
		tree = *out.cntTree
	}
	var v verdict
	var oracles []*oracle
	var firstViolation string
	for _, s := range out.sessions {
		v.Attempted += s.attempted
		v.Failed += s.or.failed
		oracles = append(oracles, s.or)
		if firstViolation == "" {
			firstViolation = s.or.first
		}
	}
	treeErr := sys.checkAfter(final, oracles)
	v.Correct = v.Failed == 0 && treeErr == nil

	var rep *report
	defs := endToEnd
	if traced {
		defs = perLayer
		rep = perLayerReport(sys, out, tree)
		phase.Store("probes")
		genProbe(sp, seed, rep)
		switch sp.name {
		case "tcp-get-d1":
			tcpProbes(sys, rep)
		case "sim-mixed-d8":
			simProbes(sys, seed, rep)
		}
	} else {
		rep = endToEndReport(out, setups, tree, peakRSSMiB(sys))
	}

	phase.Store("report")
	v.Metrics = map[string]metric{}
	for _, d := range defs {
		v.Metrics[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	printed := defs
	if !traced {
		printed = slices.Concat(defs, extras)
	}
	for i, d := range printed {
		note := ""
		if i >= len(defs) {
			note = "  (not an end-to-end metric)"
		}
		if dist, ok := rep.dists[d.name]; ok && dist.Noisy {
			note += "  (noisy: IQR/median of its slices > 0.15)"
		}
		fmt.Printf("%s %.6g %s%s\n", d.name, rep.values[d.name], d.unit, note)
	}
	fmt.Printf("failed_ops_share %.6g ratio (%d failed of %d attempted)\n",
		float64(v.Failed)/float64(v.Attempted), v.Failed, v.Attempted)
	if firstViolation != "" {
		fmt.Printf("first violation: %s\n", firstViolation)
	}
	if treeErr != nil {
		fmt.Printf("tree check: %v\n", treeErr)
	}
	if err := writeOutput(sp, seed, length, traced, sys, out, rep, v, printed); err != nil {
		fatalf("writing the report: %v", err)
	}
	return v
}

// environment is the noise guard: what the run ran on and how disturbed it
// was, recorded next to the numbers.
type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load_1min"`
	StealShare float64 `json:"steal_share"`
	InvolCtx   int64   `json:"involuntary_ctx_switches"`
}

// commit reads the checkout's HEAD when there is one; the driver's checkout
// is not a git repository.
func commit() string {
	b, err := os.ReadFile(filepath.Join("..", ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	head := string(b)
	if len(head) > 5 && head[:5] == "ref: " {
		ref, err := os.ReadFile(filepath.Join("..", ".git", head[5:len(head)-1]))
		if err != nil {
			return head[5 : len(head)-1]
		}
		head = string(ref)
	}
	return head[:len(head)-1]
}

// writeOutput writes the run's JSON next to the binaries: every metric with
// its slice distribution, the environment and, for a traced run, the
// aggregates and the raw spans of the leading operations.
func writeOutput(sp spec, seed uint64, length time.Duration, traced bool, sys *system, out outcome, rep *report, v verdict, filed []metricDef) error {
	type entry struct {
		metric
		Dist *dist `json:"slices,omitempty"`
	}
	metrics := map[string]entry{}
	for _, def := range filed {
		e := entry{metric: metric{Value: rep.values[def.name], Unit: def.unit}}
		if d, ok := rep.dists[def.name]; ok {
			e.Dist = &d
		}
		metrics[def.name] = e
	}
	doc := map[string]any{
		"workload": sp.name, "seed": seed, "seconds": length.Seconds(), "traced": traced,
		"correct": v.Correct, "attempted": v.Attempted, "failed": v.Failed,
		"wall_s":  time.Since(processStart).Seconds(),
		"metrics": metrics,
		"environment": environment{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit(), Load1: loadAvg1(),
			StealShare: ratio(float64(out.g1.steal-out.g0.steal), float64(out.g1.jiffies-out.g0.jiffies)),
			InvolCtx:   out.g1.involCtx - out.g0.involCtx,
		},
	}
	file := sp.name + ".json"
	if traced {
		file = sp.name + ".trace.json"
		verbs := map[string]any{}
		for i, h := range sys.tr.verbHists() {
			verbs[verbNames[i]] = map[string]any{
				"count": h.Count(), "mean_ns": h.Mean(), "p50_ns": h.Percentile(50), "p99_ns": h.Percentile(99),
			}
		}
		ot := mergedOpTrace(out.sessions)
		ops := map[string]any{}
		for k, name := range kindNames {
			ops[name] = map[string]any{
				"issued_traced": ot.issued[k], "spans": ot.n[k], "span_ns": ot.ns[k],
				"child_verbs": ot.childN[k], "child_ns": ot.childNS[k],
			}
		}
		var spans []rawSpan
		var until int64
		for _, s := range out.sessions {
			raw := s.c.(*coreClient).ot.raw
			spans = append(spans, raw...)
			if n := len(raw); n > 0 {
				until = max(until, raw[n-1].EndNS)
			}
		}
		doc["trace"] = map[string]any{"verbs": verbs, "ops": ops, "spans": append(spans, sys.tr.rawSpans(until)...)}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, file), b, 0o644)
}
