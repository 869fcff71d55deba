package bench

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/workload"
)

// tinyExp is a minimal tree experiment that still exercises the full
// warmup/align/measure pipeline.
func tinyExp(mix workload.Mix, dist workload.Dist, cfg core.Config) TreeExp {
	return TreeExp{
		Name:         "tiny",
		NumMS:        2,
		NumCS:        2,
		ThreadsPerCS: 4,
		Keys:         32 << 10,
		WarmupOps:    50,
		MeasureNS:    1_000_000,
		Mix:          mix,
		Dist:         dist,
		Tree:         cfg,
	}
}

func TestRunTreeBasics(t *testing.T) {
	r := RunTree(tinyExp(workload.WriteIntensive, workload.Uniform, core.ShermanConfig()))
	if r.Mops <= 0 {
		t.Fatalf("throughput = %v", r.Mops)
	}
	if r.P50 <= 0 || r.P99 < r.P50 {
		t.Fatalf("latencies: p50=%d p99=%d", r.P50, r.P99)
	}
	if r.Rec.TotalOps() == 0 {
		t.Fatal("no operations recorded")
	}
	// Ops must roughly fill the window: ops * p50 <= threads * window, with
	// wide slack for tails.
	maxOps := int64(8) * 1_000_000 / r.P50 * 2
	if got := r.Rec.TotalOps(); got > maxOps {
		t.Errorf("ops %d exceed the window's plausible capacity %d", got, maxOps)
	}
}

func TestRunTreeMixRouting(t *testing.T) {
	r := RunTree(tinyExp(workload.RangeWrite, workload.Uniform, core.ShermanConfig()))
	if r.Rec.Ops[2] != 0 { // no deletes in this mix
		t.Errorf("deletes recorded for a range-write mix")
	}
	scans := r.Rec.Ops[3]
	inserts := r.Rec.Ops[1]
	if scans == 0 || inserts == 0 {
		t.Fatalf("mix not routed: %d scans, %d inserts", scans, inserts)
	}
	ratio := float64(scans) / float64(scans+inserts)
	if ratio < 0.2 || ratio > 0.8 {
		t.Errorf("scan share %.2f far from the configured 50%%", ratio)
	}
}

func TestRunTreeNAverages(t *testing.T) {
	e := tinyExp(workload.ReadIntensive, workload.Uniform, core.ShermanConfig())
	r := RunTreeN(e, 2)
	if r.Mops <= 0 || r.Rec == nil {
		t.Fatalf("averaged result: %+v", r)
	}
	one := RunTreeN(e, 1)
	if one.Mops <= 0 {
		t.Fatal("single-run result empty")
	}
}

func TestRunLocksBasics(t *testing.T) {
	r := RunLocks(Scale{ThreadsPerCS: 4, WarmupOps: 20, MeasureNS: 500_000}, 2,
		hocl.Config{Mode: hocl.Sherman(), LocksPerMS: 64}, 0.99, sim.DefaultParams())
	if r.Mops <= 0 {
		t.Fatalf("lock throughput = %v", r.Mops)
	}
	if r.Handovers == 0 {
		t.Error("no handovers under skewed same-CS contention")
	}
}

func TestRunWritesShape(t *testing.T) {
	small := RunWrites(WriteExp{IOSize: 64, Inbound: true, Ops: 500, Threads: 16})
	big := RunWrites(WriteExp{IOSize: 4096, Inbound: true, Ops: 500, Threads: 16})
	if small.Mops <= 0 || big.Mops <= 0 {
		t.Fatalf("throughputs: %v / %v", small.Mops, big.Mops)
	}
	// Figure 3's shape: small IO is IOPS-bound, large IO bandwidth-bound,
	// so 64 B must sustain far more ops than 4 KB.
	if small.Mops < big.Mops*4 {
		t.Errorf("64B %.1f Mops vs 4KB %.1f Mops: bandwidth bound not visible",
			small.Mops, big.Mops)
	}
}

func TestLevel1WorkingSetBytes(t *testing.T) {
	cfg := core.ShermanConfig()
	ws := Level1WorkingSetBytes(2<<20, cfg)
	if ws <= 0 {
		t.Fatalf("working set = %d", ws)
	}
	// ~2M keys / 51 per leaf / 55 per L1 node * 1 KB ≈ 700-900 KB.
	if ws < 100<<10 || ws > 4<<20 {
		t.Errorf("working set %d bytes implausible", ws)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("test", "a", "bb")
	tb.Add("1", "2")
	tb.Addf(3, "four")
	tb.Note("note %d", 7)
	s := tb.String()
	for _, want := range []string{"test", "a", "bb", "1", "2", "3", "four", "# note 7"} {
		if !contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestBulkValueNonZero(t *testing.T) {
	for k := uint64(1); k < 1000; k++ {
		if bulkValue(k) == 0 {
			t.Fatalf("bulkValue(%d) = 0", k)
		}
	}
}

// TestWindowScalesOps: doubling the measurement window should roughly
// double completed operations at fixed load.
func TestWindowScalesOps(t *testing.T) {
	e := tinyExp(workload.ReadIntensive, workload.Uniform, core.ShermanConfig())
	short := RunTree(e)
	e.MeasureNS *= 2
	long := RunTree(e)
	ratio := float64(long.Rec.TotalOps()) / float64(short.Rec.TotalOps())
	if ratio < 1.4 || ratio > 2.8 {
		t.Errorf("2x window gave %.2fx ops", ratio)
	}
}

// TestFig15cShape holds Figure 15(c)'s shape at quick scale: the hit ratio
// never falls as the cache grows, and a cache covering the level-1 set hits
// at least 90 % (the paper reports ~98 %). Once a cell reaches saturation
// (99.9 %) the later ones only have to stay there: a saturated cell misses a
// few dozen of ~37.5k lookups, on right-edge level-1 nodes another compute
// server splits off, so it prints 99.9 or 100.0 by chance.
func TestFig15cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six quick-scale tree experiments")
	}
	const saturated = 99.9
	tab := Fig15Cache(QuickScale())
	prev := 0.0
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if floor := min(prev, saturated); ratio < floor {
			t.Errorf("hit ratio fell to %.1f%% at cache %s, below %.1f%%", ratio, row[0], floor)
		}
		if row[0] == "100%" && ratio < 90 {
			t.Errorf("hit ratio %.1f%% with the level-1 set cached, want at least 90%%", ratio)
		}
		prev = max(prev, ratio)
	}
}

// TestLoneWorkerGoldens pins the driver: a lone simulated client's counts
// repeat exactly (DESIGN.md §1), so each cell must reproduce these counts
// op for op.
func TestLoneWorkerGoldens(t *testing.T) {
	type counts struct{ ops, rts, p50, p99, end int64 }
	of := func(rec *stats.Recorder) counts {
		return counts{rec.TotalOps(), rec.RoundTrips, rec.AllLatency.Percentile(50),
			rec.AllLatency.Percentile(99), rec.FinishV}
	}
	tree := func(bs, depth int) counts {
		e := tinyExp(workload.WriteIntensive, workload.Zipfian, core.ShermanConfig())
		e.NumCS, e.ThreadsPerCS = 1, 1
		e.BatchSize, e.PipelineDepth = bs, depth
		return of(RunTree(e).Rec)
	}
	for _, c := range []struct {
		name string
		got  counts
		want counts
	}{
		{"tree/batch=1/depth=1", tree(1, 1), counts{221, 467, 6144, 6144, 1220602}},
		{"tree/batch=1/depth=4", tree(1, 4), counts{746, 1550, 6144, 18432, 1071728}},
		{"tree/batch=8/depth=1", tree(8, 1), counts{272, 469, 3712, 5376, 1222650}},
		{"tree/batch=8/depth=4", tree(8, 4), counts{720, 1275, 1344, 2688, 1086541}},
		{"locks", of(RunLocks(Scale{ThreadsPerCS: 1, WarmupOps: 20, MeasureNS: 500_000}, 1,
			hocl.Config{Mode: hocl.Sherman(), LocksPerMS: 64}, 0.99, sim.DefaultParams()).Rec),
			counts{115, 230, 4361, 4361, 588735}},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %+v, want %+v", c.name, c.got, c.want)
		}
	}

	e := replicaExp(Scale{Keys: 32 << 10, ThreadsPerCS: 1, MeasureNS: 500_000})
	e.NumCS = 1
	want := ReplicaResult{
		SteadyMops: 0.22599999999999998, KillMops: 0.16, RecoveredMops: 0.176, ControlMops: 0.23,
		ReplicaWritesPerWrite: 1.0357142857142858, FailedOver: 1, RepairedChunks: 3,
		RecoveryNS: 154472420, AckedWrites: 20,
	}
	if got := RunReplica(e); got != want {
		t.Errorf("replica: got %+v, want %+v", got, want)
	}
}

// TestRunCoordinatorExtendsWindow: the coordinator's pace holds it back
// until the workers catch up; while it runs past the deadline every worker
// keeps issuing, and none stops before the coordinator's end clock.
func TestRunCoordinatorExtendsWindow(t *testing.T) {
	fx := newFixture(tinyExp(workload.ReadIntensive, workload.Uniform, core.ShermanConfig()), 0, 0)
	const measure = 200_000
	var issued atomic.Int64
	var coordEnd int64
	recs, end := Run(Spec{
		Threads: fx.threads(), MeasureNS: measure,
		Worker: func(i int) Worker {
			w := fx.worker(i)
			issue := w.Issue
			w.Issue = func() int { n := issue(); issued.Add(int64(n)); return n }
			return w
		},
		Coordinator: func(start int64, pace func(int64)) int64 {
			pace(start + measure/2)
			// Every worker is now within the gate's slack of the coordinator,
			// ~40 us past its start: a few operations each.
			if got := issued.Load(); got < int64(fx.threads()) {
				t.Errorf("pace returned after %d ops of %d workers", got, fx.threads())
			}
			v := start
			for ; v < start+3*measure; v += 5_000 {
				pace(v)
			}
			coordEnd = v
			return v
		},
	})
	if end < coordEnd {
		t.Errorf("Run's end clock %d before the coordinator's %d", end, coordEnd)
	}
	for i, r := range recs {
		if r.FinishV < coordEnd {
			t.Errorf("worker %d finished at %d, before the coordinator's end %d", i, r.FinishV, coordEnd)
		}
		if r.TotalOps() == 0 {
			t.Errorf("worker %d issued nothing", i)
		}
	}
}

// TestRunSurvivesCSKill: a compute server killed at a fixed virtual time
// mid-window stops its workers there; Run still returns every recorder and
// counts the survivors' ops.
func TestRunSurvivesCSKill(t *testing.T) {
	fx := newFixture(tinyExp(workload.WriteIntensive, workload.Zipfian, core.ShermanConfig()), 0, 0)
	const measure, victim = 600_000, 1
	var killAt int64
	recs, _ := Run(Spec{
		Threads: fx.threads(), Worker: fx.worker, MeasureNS: measure, WarmupOps: 20,
		Coordinator: killAtThird(measure, func(at int64) {
			killAt = at
			fx.cl.Faults().KillAtTime(victim, at)
		}),
	})
	if len(recs) != fx.threads() {
		t.Fatalf("%d recorders for %d workers", len(recs), fx.threads())
	}
	for i, r := range recs {
		if r == nil {
			t.Fatalf("worker %d has no recorder", i)
		}
		switch {
		case i%fx.e.NumCS != victim && r.TotalOps() == 0:
			t.Errorf("survivor %d counted no ops", i)
		case i%fx.e.NumCS == victim && r.FinishV > killAt+20_000:
			t.Errorf("victim worker %d ran on to %d, past the kill at %d", i, r.FinishV, killAt)
		}
	}
}
