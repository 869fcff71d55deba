package bench

import (
	"fmt"
	"runtime"
	"time"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport/tcp"
)

// This file is the heap-discipline experiment: single-goroutine probes that
// measure steady-state allocations per operation with runtime.ReadMemStats
// deltas, the in-harness twin of `go test -bench=Probe -benchmem` in
// internal/core. The probes deliberately run on one goroutine with no
// sim.Gate pacing — the quantity under test is the allocator's behavior on
// the hot path, not throughput — so the numbers are exact counts, not
// samples, and the AllocGate can demand literal zero.

// allocProbeOps is the measured-loop length of each probe. Large enough that
// any per-op allocation dominates one-time noise (a lazily grown map bucket,
// a pool refill after GC), small enough to keep the quick CI run cheap.
const allocProbeOps = 16384

// allocProbeKeys is the bulkloaded key count; probes cycle keys 1..allocProbeKeys.
const allocProbeKeys = 4096

// execBatchSize is the mixed-batch probe's ops per Exec call.
const execBatchSize = 16

// allocProbe is one steady-state measurement: name is the Metric row key
// (alloc/<name>), depth the pipeline depth, and run the measured loop. run
// is called once for warmup (which must also fully warm the index cache and
// any lazily sized scratch) and once, after a forced GC, for measurement.
type allocProbe struct {
	name  string
	depth int
	ops   int // logical operations per run() (for the per-op division)
	run   func(h *core.Handle, as *core.Async)
	// setup overrides the default fixture (allocSetup) — the replicated
	// probe builds a factor-2 cluster so the mirror engine is on the path.
	setup func(depth int) (*core.Handle, *core.Async)
}

// allocProbes is the probe set. get_cached and put_steady are the tentpole
// claims (zero allocs in steady state); the pipelined and mixed-batch
// variants pin down the async executor and planner scratch.
func allocProbes() []allocProbe {
	return []allocProbe{
		{
			name: "get_cached", depth: 1, ops: allocProbeOps,
			run: func(h *core.Handle, as *core.Async) {
				for i := 0; i < allocProbeOps; i++ {
					h.Lookup(uint64(i%allocProbeKeys + 1))
				}
			},
		},
		{
			name: "get_pipelined_d8", depth: 8, ops: allocProbeOps,
			run: func(h *core.Handle, as *core.Async) {
				for i := 0; i < allocProbeOps; i++ {
					as.SubmitOp(core.Op{Kind: stats.OpLookup, Key: uint64(i%allocProbeKeys + 1)})
				}
				as.Flush()
			},
		},
		{
			name: "put_steady", depth: 1, ops: allocProbeOps,
			run: func(h *core.Handle, as *core.Async) {
				for i := 0; i < allocProbeOps; i++ {
					h.Insert(uint64(i%allocProbeKeys+1), uint64(i+1))
				}
			},
		},
		{
			// The steady put with factor-2 replication: every commit is
			// preceded by a mirror doorbell, which must ride the pooled
			// replica scratch and add zero allocations of its own.
			name: "put_steady_rf2", depth: 1, ops: allocProbeOps,
			setup: allocSetupRF2,
			run: func(h *core.Handle, as *core.Async) {
				for i := 0; i < allocProbeOps; i++ {
					h.Insert(uint64(i%allocProbeKeys+1), uint64(i+1))
				}
			},
		},
		{
			name: "put_pipelined_d8", depth: 8, ops: allocProbeOps,
			run: func(h *core.Handle, as *core.Async) {
				for i := 0; i < allocProbeOps; i++ {
					as.SubmitOp(core.Op{Kind: stats.OpInsert, Key: uint64(i%allocProbeKeys + 1), Value: uint64(i + 1)})
				}
				as.Flush()
			},
		},
		{
			// The cached get over real sockets: in-process wire-v2 servers
			// share the probe's heap, so the deltas cover the whole round
			// trip — mux issue/await, the server's pooled request contexts,
			// its coalescing writer and the inline-read fast path.
			name: "get_tcp", depth: 1, ops: allocProbeOps,
			setup: allocSetupTCP,
			run: func(h *core.Handle, as *core.Async) {
				for i := 0; i < allocProbeOps; i++ {
					h.Lookup(uint64(i%allocProbeKeys + 1))
				}
			},
		},
		{
			name: "exec_mixed_d4", depth: 4, ops: allocProbeOps,
			run: func(h *core.Handle, as *core.Async) {
				ops := make([]core.Op, execBatchSize)
				results := make([]core.OpResult, execBatchSize)
				for i := 0; i < allocProbeOps/execBatchSize; i++ {
					for j := range ops {
						k := uint64((i*execBatchSize+j)%allocProbeKeys + 1)
						if j%2 == 0 {
							ops[j] = core.Op{Kind: stats.OpLookup, Key: k}
						} else {
							ops[j] = core.Op{Kind: stats.OpInsert, Key: k, Value: k}
						}
					}
					as.ExecInto(ops, results)
				}
			},
		},
	}
}

// allocSetup builds the probe fixture: a small bulkloaded Sherman tree on a
// 2-MS/1-CS cluster with the index cache warmed by one full key sweep, so
// the measured loops run entirely in the cached steady state the tentpole
// targets.
func allocSetup(depth int) (*core.Handle, *core.Async) {
	return allocSetupCluster(depth, cluster.Config{NumMS: 2, NumCS: 1})
}

// allocSetupRF2 is allocSetup on a replicated cluster: three memory servers
// at ReplicationFactor 2, so every bulk chunk has a live replica and every
// measured put mirrors before committing.
func allocSetupRF2(depth int) (*core.Handle, *core.Async) {
	return allocSetupCluster(depth, cluster.Config{NumMS: 3, NumCS: 1, ReplicationFactor: 2})
}

// allocSetupTCP is allocSetup over real sockets: two in-process wire-v2
// servers (the same demux / inline-read / coalescing-writer path shermand
// runs) and a TCP cluster client with heartbeats disabled, so the measured
// deltas include both ends of every round trip in one heap. The servers are
// deliberately leaked — probes have no teardown hook, and the measurement
// process exits right after.
func allocSetupTCP(depth int) (*core.Handle, *core.Async) {
	endpoints := make([]string, 2)
	for i := range endpoints {
		s, err := tcp.NewServer("127.0.0.1:0")
		if err != nil {
			panic("bench: alloc tcp server: " + err.Error())
		}
		go s.Serve()
		endpoints[i] = s.Addr()
	}
	tc, err := tcp.NewCluster(endpoints, 1, tcp.Options{HeartbeatInterval: -1})
	if err != nil {
		panic("bench: alloc tcp cluster: " + err.Error())
	}
	return allocSetupTree(depth, tc)
}

func allocSetupCluster(depth int, ccfg cluster.Config) (*core.Handle, *core.Async) {
	return allocSetupTree(depth, cluster.New(ccfg))
}

func allocSetupTree(depth int, cl core.Backend) (*core.Handle, *core.Async) {
	cfg := core.ShermanConfig()
	cfg.Format = layout.NewFormat(layout.TwoLevel, 8, 256)
	cfg.LocksPerMS = 1024
	tr := core.New(cl, cfg)
	kvs := make([]layout.KV, allocProbeKeys)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: k * 3}
	}
	if err := tr.Bulkload(kvs); err != nil {
		panic(err)
	}
	h := tr.NewHandle(0, 0)
	as := h.NewAsync(depth)
	for i := 0; i < allocProbeKeys; i++ {
		h.Lookup(uint64(i + 1))
	}
	return h, as
}

// measureAlloc runs one probe to steady state and returns its ReadMemStats
// deltas: allocations and heap bytes per operation, and the GC pause share
// of the measured wall time.
func measureAlloc(p allocProbe) (allocsPerOp, bytesPerOp, gcPauseFrac float64) {
	setup := p.setup
	if setup == nil {
		setup = allocSetup
	}
	h, as := setup(p.depth)
	// Warmup run: populates handle scratch, pools, and the tree's value
	// overwrites so the measured run sees only steady-state work.
	p.run(h, as)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	p.run(h, as)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	ops := float64(p.ops)
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / ops
	bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
	if wall > 0 {
		gcPauseFrac = float64(after.PauseTotalNs-before.PauseTotalNs) / float64(wall.Nanoseconds())
	}
	return allocsPerOp, bytesPerOp, gcPauseFrac
}

// AllocTables reports the zero-allocation experiment: exact ReadMemStats
// deltas for the steady-state hot paths. When c is non-nil, typed metrics
// (HasAlloc rows) are recorded for the JSON report, the baseline regression
// band, and the hard AllocGate.
func AllocTables(s Scale, c *Collector) []*Table {
	t := NewTable("Alloc: steady-state heap traffic per op (ReadMemStats deltas)",
		"probe", "depth", "allocs/op", "B/op", "gc-pause-frac")
	for _, p := range allocProbes() {
		allocs, bytes, pause := measureAlloc(p)
		t.Add(p.name, fmt.Sprint(p.depth),
			fmt.Sprintf("%.4f", allocs), fmt.Sprintf("%.1f", bytes), fmt.Sprintf("%.5f", pause))
		c.Add(Metric{
			Exp:  "alloc",
			Name: "alloc/" + p.name,
			Gate: true,
			// Mops deliberately 0: probes are unpaced single-goroutine loops,
			// so throughput is meaningless and the Mops gate must skip them.
			HasAlloc:    true,
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
			GCPauseFrac: pause,
		})
	}
	t.Note("single goroutine, %d ops per probe after a warmup pass and forced GC", allocProbeOps)
	t.Note("exec_mixed's residual allocs/op is the caller-owned results slice of Exec-without-Into callers: the probe itself recycles")
	t.Note("get_tcp runs client and in-process wire-v2 servers in one heap: the delta covers both ends of every real round trip")
	return []*Table{t}
}

// allocBudgets is the hard per-op ceiling of each probe, enforced by
// AllocGate independent of the baseline band. The steady-state paths must
// measure exactly zero; 0.01 absorbs sub-one-per-hundred-ops noise (e.g. a
// pool refill after a background GC) without admitting any real per-op
// allocation. exec_mixed_d4 has no steady per-op allocs either — its
// results buffer is recycled via ExecInto — so it shares the zero budget.
var allocBudgets = map[string]float64{
	"alloc/get_cached":       0.01,
	"alloc/get_pipelined_d8": 0.01,
	"alloc/put_steady":       0.01,
	"alloc/put_steady_rf2":   0.01,
	"alloc/put_pipelined_d8": 0.01,
	"alloc/get_tcp":          0.01,
	"alloc/exec_mixed_d4":    0.01,
}

// AllocGate is the CI check behind `shermanbench -exp alloc -check`: every
// probe must come in under its hard budget — cached gets and steady puts at
// zero allocations per operation. Unlike the baseline regression band, these
// ceilings are absolute: a baseline refresh cannot ratchet them upward.
func AllocGate(ms []Metric) error {
	seen := 0
	for _, m := range ms {
		if !m.HasAlloc {
			continue
		}
		budget, ok := allocBudgets[m.Name]
		if !ok {
			return fmt.Errorf("alloc gate: %s has no budget — add it to allocBudgets", m.Name)
		}
		seen++
		if m.AllocsPerOp > budget {
			return fmt.Errorf("alloc gate: %s measured %.4f allocs/op, budget %.2f",
				m.Name, m.AllocsPerOp, budget)
		}
	}
	if seen != len(allocBudgets) {
		return fmt.Errorf("alloc gate: %d of %d probes present in the run", seen, len(allocBudgets))
	}
	return nil
}
