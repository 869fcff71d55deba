package bench

import (
	"fmt"

	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/workload"
)

// This file is the unified-index-cache experiment: a cache-size ×
// levels-cached × workload-skew sweep over the multi-level cache, reporting
// throughput, round trips per operation, per-level hit shares, speculative
// leaf-direct success, and invalidation traffic. Its results resolve the
// DESIGN.md §6 open question — is caching level-1 nodes worth the
// invalidation traffic vs caching only the top two levels — with measured
// numbers (see DESIGN.md §10), and CacheGate turns the two headline
// comparisons into CI assertions.
//
// The sweep uses small (256 B) nodes so the quick-scale tree is deep
// (root level 5 at 256 Ki keys): a descent that starts at the pinned top
// still pays several internal reads, which is exactly the regime where
// cached lower levels and leaf-direct speculation pay off — at the paper's
// billion-key scale every tree looks like this.

// cacheNodeSize keeps the sweep's tree deep at bench scale.
const cacheNodeSize = 256

// CacheCellResult is one measured cell.
type CacheCellResult struct {
	// Mops and RTPerOp are the headline trade-off: round trips per
	// operation is what the cache exists to cut.
	Mops    float64
	RTPerOp float64
	// HitRatio is the leaf-direct (level-1) hit ratio; LevelShare[l] is the
	// fraction of leaf locations answered at cache level l (l >= 2 means
	// the descent resumed there instead of the root).
	HitRatio   float64
	SpecRate   float64
	L2Share    float64
	InvalPerOp float64
	Evictions  int64
	P50, P99   int64
}

// cacheExp is the sweep's experiment under dist, with a budgeted region
// caching `levels` tree levels (core.Config.CacheLevels; -1 = off, pinned
// top only) in budget bytes.
func cacheExp(s Scale, dist workload.Dist, levels int, budget int64) TreeExp {
	cfg := core.ShermanConfig()
	cfg.Format = layout.NewFormat(layout.TwoLevel, 8, cacheNodeSize)
	cfg.CacheLevels = levels
	cfg.CacheBytes = budget
	return TreeExp{
		Keys:         max(s.Keys, 1<<18), // keep the 256 B-node tree at root level >= 5
		ThreadsPerCS: min(s.ThreadsPerCS, 8),
		MeasureNS:    s.MeasureNS,
		WarmupOps:    s.WarmupOps,
		Mix:          workload.ReadIntensive,
		Dist:         dist,
		Tree:         cfg,
	}
}

// runCacheCell executes one sweep cell: the read-intensive workload under
// dist, caching `levels` tree levels in pct% of l1, the sweep tree's
// measured level-1 set (level1Bytes).
func runCacheCell(s Scale, dist workload.Dist, pct, levels int, l1 int64) CacheCellResult {
	budget := int64(1) // budget is irrelevant; top levels stay pinned
	if levels >= 0 {
		budget = max(l1*int64(pct)/100, cacheNodeSize)
	}
	r := RunTree(cacheExp(s, dist, levels, budget))
	ops := r.Rec.TotalOps()
	out := CacheCellResult{
		Mops:      r.Mops,
		RTPerOp:   r.RoundTripsPerOp,
		HitRatio:  r.HitRatio,
		SpecRate:  r.Rec.SpecSuccessRate(),
		Evictions: r.CacheEvictions,
		P50:       r.P50,
		P99:       r.P99,
	}
	if locates := r.Rec.CacheHits + r.Rec.CacheMisses; locates > 0 {
		out.L2Share = float64(sumLevelHitsFrom(r, 2)) / float64(locates)
	}
	if ops > 0 {
		out.InvalPerOp = float64(r.Rec.CacheInvalidations) / float64(ops)
	}
	return out
}

// sumLevelHitsFrom totals descent-resume hits at cache level minLvl and
// above (the pinned top levels included).
func sumLevelHitsFrom(r TreeResult, minLvl int) int64 {
	var n int64
	for l := minLvl; l < len(r.Rec.CacheLevelHits); l++ {
		n += r.Rec.CacheLevelHits[l]
	}
	return n
}

// CacheResult carries the cells CacheGate asserts on.
type CacheResult struct {
	// Off / Default compare no budgeted cache against the default unified
	// configuration (levels=2) at a budget of the whole measured level-1 set.
	Off, Default CacheCellResult
	// FlatSmall / UnifiedSmall compare the paper's flat level-1-only cache
	// against the unified multi-level cache at the same constrained budget
	// (a quarter of the measured level-1 set) — the regime where the
	// architecture, not the budget, decides.
	FlatSmall, UnifiedSmall CacheCellResult
}

// CacheSweep runs the cache-size × levels-cached × skew sweep and renders
// it; typed metrics land in the collector (the BENCH_*.json artifact). The
// returned result feeds CacheGate.
func CacheSweep(s Scale, c *Collector) (*Table, *CacheResult) {
	t := NewTable("Cache: unified multi-level index cache (read-intensive, 256 B nodes)",
		"dist", "cache", "levels", "Mops", "RT/op", "L1 hit", "spec ok", "L2+ resume", "inval/op", "p50(us)")
	res := &CacheResult{}

	type cell struct {
		dist   workload.Dist
		pct    int
		levels int
		keep   **CacheCellResult
	}
	var offP, defP, flatP, uniP *CacheCellResult
	cells := []cell{
		{workload.Uniform, 0, -1, &offP},
		{workload.Uniform, 25, 1, &flatP},
		{workload.Uniform, 25, 2, &uniP},
		{workload.Uniform, 25, 3, nil},
		{workload.Uniform, 100, 1, nil},
		{workload.Uniform, 100, 2, &defP},
		{workload.Zipfian, 25, 1, nil},
		{workload.Zipfian, 25, 2, nil},
	}
	distName := func(d workload.Dist) string {
		if d == workload.Zipfian {
			return "zipf-0.99"
		}
		return "uniform"
	}
	l1 := level1Bytes(cacheExp(s, workload.Uniform, 2, 0))
	for _, cl := range cells {
		lvlName := fmt.Sprint(cl.levels)
		sizeName := fmt.Sprintf("%d%%", cl.pct)
		if cl.levels < 0 {
			lvlName, sizeName = "off", "-"
		}
		name := fmt.Sprintf("cache/%s/size=%s/levels=%s", distName(cl.dist), sizeName, lvlName)
		r := runCacheCell(s, cl.dist, cl.pct, cl.levels, l1)
		if cl.keep != nil {
			*cl.keep = &r
		}
		t.Add(distName(cl.dist), sizeName, lvlName, MopsString(r.Mops),
			fmt.Sprintf("%.2f", r.RTPerOp),
			fmt.Sprintf("%.1f%%", r.HitRatio*100),
			fmt.Sprintf("%.1f%%", r.SpecRate*100),
			fmt.Sprintf("%.1f%%", r.L2Share*100),
			fmt.Sprintf("%.4f", r.InvalPerOp),
			USString(r.P50))
		c.Add(Metric{
			Exp: "cache", Name: name,
			// The two headline cells are stable enough to regression-gate;
			// the constrained-budget cells sit on an eviction knife edge and
			// are reported for trajectory only.
			Gate:       cl.levels == 2 && cl.pct == 100 || cl.levels < 0,
			Mops:       r.Mops,
			P50NS:      r.P50,
			P99NS:      r.P99,
			RTPerOp:    r.RTPerOp,
			HitRatio:   r.HitRatio,
			SpecRate:   r.SpecRate,
			InvalPerOp: r.InvalPerOp,
			Evictions:  r.Evictions,
		})
	}
	res.Off, res.Default = *offP, *defP
	res.FlatSmall, res.UnifiedSmall = *flatP, *uniP
	t.Note("RT/op: network round trips per completed operation over the measured window")
	t.Note("L1 hit: leaf locations answered leaf-direct from a cached level-1 parent; spec ok: those validating first try")
	t.Note("L2+ resume: leaf locations whose descent resumed at a cached level >= 2 instead of the root")
	t.Note("levels=off caches only the pinned top two levels; levels=1 is the paper's flat type-1 cache")
	return t, res
}

// maxConstrainedHit is the highest level-1 hit ratio a constrained-budget
// cell may show and still count as constrained.
const maxConstrainedHit = 0.70

// CacheGate is the CI check behind `shermanbench -exp cache -check`: at the
// default configuration (levels=2, a budget of the whole level-1 set),
// speculative leaf-direct reads must cut round trips per operation well
// below the cache-off baseline and speculation must almost always validate;
// at the constrained budget both caches must miss level 1 often (a hit
// ratio of at most maxConstrainedHit), so the cell constrains whatever the
// placement; and there the unified multi-level cache must beat the flat
// level-1-only baseline on RT/op — the measured answer to DESIGN.md §6's
// "is caching level-1 nodes worth it" question.
func CacheGate(r *CacheResult) error {
	if r == nil {
		return fmt.Errorf("cache gate: experiment did not run")
	}
	if r.Default.RTPerOp <= 0 || r.Off.RTPerOp <= 0 {
		return fmt.Errorf("cache gate: no round trips measured (default %.2f, off %.2f)",
			r.Default.RTPerOp, r.Off.RTPerOp)
	}
	if r.Default.RTPerOp > 0.6*r.Off.RTPerOp {
		return fmt.Errorf("cache gate: default config RT/op %.2f not under 60%% of cache-off %.2f",
			r.Default.RTPerOp, r.Off.RTPerOp)
	}
	if r.Default.SpecRate < 0.9 {
		return fmt.Errorf("cache gate: speculation success %.1f%% below 90%% at the default config",
			r.Default.SpecRate*100)
	}
	if max(r.FlatSmall.HitRatio, r.UnifiedSmall.HitRatio) > maxConstrainedHit {
		return fmt.Errorf("cache gate: level-1 hit ratio %.1f%% flat, %.1f%% unified at the constrained budget, above %.0f%%: the budget does not constrain",
			r.FlatSmall.HitRatio*100, r.UnifiedSmall.HitRatio*100, maxConstrainedHit*100)
	}
	if r.UnifiedSmall.RTPerOp >= r.FlatSmall.RTPerOp {
		return fmt.Errorf("cache gate: unified cache RT/op %.2f not under flat level-1-only %.2f at the constrained budget",
			r.UnifiedSmall.RTPerOp, r.FlatSmall.RTPerOp)
	}
	return nil
}
