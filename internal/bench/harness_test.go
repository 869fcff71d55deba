package bench

import (
	"strconv"
	"strings"
	"testing"

	"sherman/internal/core"
	"sherman/internal/hocl"
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
	r := RunLocks(LockExp{
		Name: "tiny", NumCS: 2, ThreadsPerCS: 4, Locks: 64,
		Theta: 0.99, Mode: hocl.Sherman(),
		WarmupOps: 20, MeasureNS: 500_000,
	})
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

// TestRPCBaselineCeiling: the RPC index's write throughput must be pinned
// near the memory threads' aggregate service rate and must not grow with
// client count, while Sherman's does (the Table 2 claim).
func TestRPCBaselineCeiling(t *testing.T) {
	s := Scale{MeasureNS: 1_000_000}
	few := runRPCWrites(2, s)  // 16 clients
	many := runRPCWrites(8, s) // 64 clients
	// 8 MSs x 1 op / 2000 ns = 4 Mops hard ceiling.
	if many > 4.4 {
		t.Errorf("RPC writes reached %.2f Mops, above the 4 Mops memory-thread ceiling", many)
	}
	if many > few*2 {
		t.Errorf("RPC writes scaled %.2f -> %.2f Mops with 4x clients; should saturate", few, many)
	}
}

// TestFig15cShape holds Figure 15(c)'s shape at quick scale: the hit ratio
// never falls as the cache grows, and a cache covering the level-1 set hits
// at least 90 % (the paper reports ~98 %).
func TestFig15cShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six quick-scale tree experiments")
	}
	tab := Fig15Cache(QuickScale())
	prev := 0.0
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "%"), 64)
		if err != nil {
			t.Fatalf("row %v: %v", row, err)
		}
		if ratio < prev {
			t.Errorf("hit ratio fell to %.1f%% at cache %s (previous row %.1f%%)", ratio, row[0], prev)
		}
		if row[0] == "100%" && ratio < 90 {
			t.Errorf("hit ratio %.1f%% with the level-1 set cached, want at least 90%%", ratio)
		}
		prev = ratio
	}
}
