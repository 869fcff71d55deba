package sherman

// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5). Each benchmark runs the corresponding experiment driver once per
// b.N at a CI-friendly scale and reports the headline virtual-time metrics
// (Mops, p50/p99 microseconds) via b.ReportMetric, so `go test -bench`
// output can be compared directly against the paper's numbers. Full-scale
// runs (176 threads, 2M keys) go through cmd/shermanbench, whose -json
// reports are committed as BENCH_N.json.

import (
	"fmt"
	"testing"

	"sherman/internal/bench"
	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/workload"
)

func benchScale() bench.Scale { return bench.QuickScale() }

func reportTree(b *testing.B, r bench.TreeResult) {
	b.ReportMetric(r.Mops, "Mops")
	b.ReportMetric(float64(r.P50)/1000, "p50us")
	b.ReportMetric(float64(r.P99)/1000, "p99us")
}

// BenchmarkTable1 reproduces Table 1: the one-sided baseline (FG+) under
// read- and write-intensive workloads, uniform and skewed. The paper's
// headline: the write-intensive skewed cell collapses.
func BenchmarkTable1(b *testing.B) {
	s := benchScale()
	cells := []struct {
		name string
		mix  workload.Mix
		dist workload.Dist
	}{
		{"read-intensive/uniform", workload.ReadIntensive, workload.Uniform},
		{"read-intensive/skew", workload.ReadIntensive, workload.Zipfian},
		{"write-intensive/uniform", workload.WriteIntensive, workload.Uniform},
		{"write-intensive/skew", workload.WriteIntensive, workload.Zipfian},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.RunTreeScaled(s, "FG+", c.mix, c.dist, core.FGPlusConfig())
				reportTree(b, r)
			}
		})
	}
}

// BenchmarkFig2 reproduces Figure 2: FG-style RDMA exclusive locks vs
// contention degree; throughput collapses and tail latency explodes as
// skew rises.
func BenchmarkFig2(b *testing.B) {
	s := benchScale()
	for _, theta := range []float64{0, 0.8, 0.9, 0.95, 0.99} {
		name := fmt.Sprintf("theta=%.2f", theta)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.RunLocks(bench.LockExp{
					Name: name, Theta: theta, NumCS: 7,
					Mode: hocl.Baseline(), MeasureNS: s.MeasureNS,
				})
				b.ReportMetric(r.Mops, "Mops")
				b.ReportMetric(float64(r.P99)/1000, "p99us")
			}
		})
	}
}

// BenchmarkFig3 reproduces Figure 3: raw RDMA_WRITE throughput vs IO size,
// inbound (8 CSs -> 1 MS) and outbound (1 CS -> 8 MSs).
func BenchmarkFig3(b *testing.B) {
	s := benchScale()
	for _, size := range []int{16, 64, 256, 1024, 4096} {
		for _, dir := range []struct {
			name    string
			inbound bool
		}{{"inbound", true}, {"outbound", false}} {
			b.Run(fmt.Sprintf("%s/%dB", dir.name, size), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := bench.RunWrites(bench.WriteExp{
						IOSize: size, Inbound: dir.inbound, Ops: s.WriteOps,
					})
					b.ReportMetric(r.Mops, "Mops")
				}
			})
		}
	}
}

// BenchmarkFig10 reproduces Figure 10: the cumulative ablation under skewed
// (theta=0.99) workloads — FG+, +Combine, +On-Chip, +Hierarchical,
// +2-Level Ver — for the write-intensive mix (panels a and c are separate
// benchmarks below to keep runtimes sane).
func BenchmarkFig10(b *testing.B) {
	s := benchScale()
	for _, step := range core.AblationSteps() {
		b.Run(step.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.RunTreeScaled(s, step.String(), workload.WriteIntensive,
					workload.Zipfian, core.AblationConfig(step))
				reportTree(b, r)
			}
		})
	}
}

// BenchmarkFig10WriteOnly is Figure 10(a): the same ablation, write-only.
func BenchmarkFig10WriteOnly(b *testing.B) {
	s := benchScale()
	for _, step := range []core.AblationStep{core.StepFGPlus, core.StepTwoLevelVer} {
		b.Run(step.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.RunTreeScaled(s, step.String(), workload.WriteOnly,
					workload.Zipfian, core.AblationConfig(step))
				reportTree(b, r)
			}
		})
	}
}

// BenchmarkFig11 reproduces Figure 11: the ablation under uniform
// workloads, where the gap is small (the techniques target contention).
func BenchmarkFig11(b *testing.B) {
	s := benchScale()
	for _, step := range []core.AblationStep{core.StepFGPlus, core.StepTwoLevelVer} {
		b.Run(step.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.RunTreeScaled(s, step.String(), workload.WriteIntensive,
					workload.Uniform, core.AblationConfig(step))
				reportTree(b, r)
			}
		})
	}
}

// BenchmarkFig12 reproduces Figure 12: range query throughput, range-only
// and range-write, FG+ vs Sherman at spans 100 and 1000.
func BenchmarkFig12(b *testing.B) {
	s := benchScale()
	for _, w := range []struct {
		name string
		mix  workload.Mix
	}{{"range-only", workload.RangeOnly}, {"range-write", workload.RangeWrite}} {
		for _, span := range []int{100, 1000} {
			for _, cfg := range []core.Config{core.FGPlusConfig(), core.ShermanConfig()} {
				b.Run(fmt.Sprintf("%s/span=%d/%s", w.name, span, cfg.Name()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e := bench.TreeExpScaled(s, w.name, w.mix, workload.Zipfian, cfg)
						e.RangeSpan = span
						r := bench.RunTree(e)
						reportTree(b, r)
					}
				})
			}
		}
	}
}

// BenchmarkFig13 reproduces Figure 13: write-intensive throughput as client
// threads scale, at three contention levels.
func BenchmarkFig13(b *testing.B) {
	s := benchScale()
	for _, d := range []struct {
		name  string
		dist  workload.Dist
		theta float64
	}{{"uniform", workload.Uniform, 0.99}, {"skew=0.99", workload.Zipfian, 0.99}} {
		for _, tpc := range []int{2, 8, 22} {
			for _, cfg := range []core.Config{core.FGPlusConfig(), core.ShermanConfig()} {
				b.Run(fmt.Sprintf("%s/threads=%d/%s", d.name, tpc*8, cfg.Name()), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e := bench.TreeExpScaled(s, "scal", workload.WriteIntensive, d.dist, cfg)
						e.ThreadsPerCS = tpc
						e.Theta = d.theta
						r := bench.RunTree(e)
						reportTree(b, r)
					}
				})
			}
		}
	}
}

// BenchmarkFig14 reproduces Figure 14: internal metrics under
// write-intensive skewed load — per-write round trips and write sizes.
func BenchmarkFig14(b *testing.B) {
	s := benchScale()
	for _, cfg := range []core.Config{core.FGPlusConfig(), core.ShermanConfig()} {
		b.Run(cfg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.RunTreeScaled(s, cfg.Name(), workload.WriteIntensive,
					workload.Zipfian, cfg)
				b.ReportMetric(float64(r.Rec.WriteRoundTrips.PercentileValue(50)), "rt-p50")
				b.ReportMetric(float64(r.Rec.WriteRoundTrips.PercentileValue(99)), "rt-p99")
				b.ReportMetric(r.Mops, "Mops")
			}
		})
	}
}

// BenchmarkFig15KeySize reproduces Figures 15(a)/(b): throughput vs key
// size with 32-entry nodes.
func BenchmarkFig15KeySize(b *testing.B) {
	s := benchScale()
	for _, ks := range []int{16, 128, 1024} {
		for _, base := range []core.Config{core.FGPlusConfig(), core.ShermanConfig()} {
			cfg := base
			cfg.Format = layout.NewFormatFixedCap(cfg.Format.Mode, ks, 32)
			b.Run(fmt.Sprintf("key=%dB/%s", ks, base.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e := bench.TreeExpScaled(s, "keysize", workload.WriteIntensive, workload.Uniform, cfg)
					e.Keys = s.Keys / 4
					r := bench.RunTree(e)
					reportTree(b, r)
				}
			})
		}
	}
}

// BenchmarkFig15Cache reproduces Figure 15(c): throughput and hit ratio vs
// index-cache size.
func BenchmarkFig15Cache(b *testing.B) {
	s := benchScale()
	cfg := core.ShermanConfig()
	for _, pct := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("cache=%d%%", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := cfg
				c.CacheBytes = bench.Level1WorkingSetBytes(s.Keys, cfg) * int64(pct) / 100
				if c.CacheBytes < int64(cfg.Format.NodeSize) {
					c.CacheBytes = int64(cfg.Format.NodeSize)
				}
				e := bench.TreeExpScaled(s, "cache", workload.WriteIntensive, workload.Uniform, c)
				r := bench.RunTree(e)
				b.ReportMetric(r.Mops, "Mops")
				b.ReportMetric(r.HitRatio*100, "hit%")
			}
		})
	}
}

// BenchmarkFig16 reproduces Figure 16: the HOCL-internal ablation on the
// raw lock workload.
func BenchmarkFig16(b *testing.B) {
	s := benchScale()
	steps := []struct {
		name string
		mode hocl.Mode
	}{
		{"Baseline", hocl.Baseline()},
		{"On-Chip", hocl.Mode{OnChip: true}},
		{"Hierarchical", hocl.Mode{OnChip: true, Local: true}},
		{"WaitQueue", hocl.Mode{OnChip: true, Local: true, WaitQueue: true}},
		{"Handover", hocl.Sherman()},
	}
	for _, st := range steps {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := bench.RunLocks(bench.LockExp{
					Name: st.name, Theta: 0.99, Mode: st.mode, MeasureNS: s.MeasureNS,
				})
				b.ReportMetric(r.Mops, "Mops")
				b.ReportMetric(float64(r.P99)/1000, "p99us")
			}
		})
	}
}

// BenchmarkPublicAPIPut measures the public API overhead on a plain
// single-session insert stream (not a paper figure; a conventional Go
// microbenchmark for library users).
func BenchmarkPublicAPIPut(b *testing.B) {
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := c.CreateTree(DefaultTreeOptions())
	if err != nil {
		b.Fatal(err)
	}
	s := openSession(b, tree, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(uint64(i)+1, uint64(i))
	}
}

// BenchmarkPublicAPIGet measures lookups against a preloaded tree.
func BenchmarkPublicAPIGet(b *testing.B) {
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := c.CreateTree(DefaultTreeOptions())
	if err != nil {
		b.Fatal(err)
	}
	kvs := make([]KV, 100_000)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		b.Fatal(err)
	}
	s := openSession(b, tree, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(i%100_000) + 1)
	}
}
