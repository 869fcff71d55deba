package core_test

import (
	"testing"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/testutil"
)

func setupProbe(b *testing.B, depth int) (*core.Handle, *core.Async) {
	b.Helper()
	cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 1})
	cfg := core.ShermanConfig()
	cfg.Format = layout.NewFormat(layout.TwoLevel, 8, 256)
	cfg.LocksPerMS = 1024
	tr := core.New(cl, cfg)
	kvs := make([]layout.KV, 4096)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: k * 3}
	}
	tr.Bulkload(kvs)
	h := tr.NewHandle(0, 0)
	as := h.NewAsync(depth)
	b.Cleanup(as.Close)
	// warm the cache
	for i := 0; i < 4096; i++ {
		h.Lookup(uint64(i + 1))
	}
	return h, as
}

func BenchmarkProbeGetCached(b *testing.B) {
	h, _ := setupProbe(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(uint64(i%4096 + 1))
	}
}

// BenchmarkProbeGetCold runs gets over a tree whose level-1 set is about
// four times the cache budget — 64Ki keys in 256 B nodes make ~650 level-1
// nodes, about 50 KB of routing copies, against 14 KiB — so most gets miss
// level 1, descend, and offer the nodes they read to the cache: admission
// and eviction run on most ops. allocs/op is the cold-cache allocation rate: an
// admitted entry allocates its Entry and its routing copy (DESIGN.md §11).
func BenchmarkProbeGetCold(b *testing.B) {
	const keys = 1 << 16
	cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 1})
	cfg := core.ShermanConfig()
	cfg.Format = layout.NewFormat(layout.TwoLevel, 8, 256)
	cfg.LocksPerMS = 1024
	cfg.CacheBytes = 14 << 10
	tr := core.New(cl, cfg)
	kvs := make([]layout.KV, keys)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: k * 3}
	}
	tr.Bulkload(kvs)
	h := tr.NewHandle(0, 0)
	key := func(i int) uint64 { return uint64(i)*40503%keys + 1 }
	for i := 0; i < keys; i++ {
		h.Lookup(key(i))
	}
	c := tr.Cache(0)
	hits, misses := c.Hits(), c.Misses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(key(i))
	}
	b.StopTimer()
	hits, misses = c.Hits()-hits, c.Misses()-misses
	b.ReportMetric(float64(hits)/float64(hits+misses), "hit-ratio")
}

func BenchmarkProbeGetPipelined(b *testing.B) {
	_, as := setupProbe(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.SubmitOp(core.Op{Kind: stats.OpLookup, Key: uint64(i%4096 + 1)})
	}
	as.Flush()
}

func BenchmarkProbePutSteady(b *testing.B) {
	h, _ := setupProbe(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(uint64(i%4096+1), uint64(i))
	}
}

func BenchmarkProbePutPipelined(b *testing.B) {
	_, as := setupProbe(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		as.SubmitOp(core.Op{Kind: stats.OpInsert, Key: uint64(i%4096 + 1), Value: uint64(i)})
	}
	as.Flush()
}

func BenchmarkProbeExecMixed(b *testing.B) {
	_, as := setupProbe(b, 4)
	ops := make([]core.Op, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			k := uint64((i*16+j)%4096 + 1)
			if j%2 == 0 {
				ops[j] = core.Op{Kind: stats.OpLookup, Key: k}
			} else {
				ops[j] = core.Op{Kind: stats.OpInsert, Key: k, Value: k}
			}
		}
		as.Exec(ops)
	}
}

// BenchmarkProbeBulkload bulkloads a tree of b.N leaves (1 KiB nodes at the
// default 80% fill) on each fabric, TCP over two in-process servers, so
// ns/op is per leaf built and stored and MB/s counts the leaves' bytes. B/op
// is reported per node: the heap bytes the build allocated, divided by the
// nodes built — the figure TestBulkloadAllocs bounds. Over TCP it includes
// the servers' own allocations.
func BenchmarkProbeBulkload(b *testing.B) {
	f := core.ShermanConfig().Format
	perLeaf := int(float64(f.LeafCap) * 0.8)
	for _, fab := range testutil.Fabrics() {
		b.Run(fab.Name, func(b *testing.B) {
			tr, kvs := bulkSetup(b, fab, b.N*perLeaf)
			b.SetBytes(int64(f.NodeSize))
			b.ReportAllocs()
			b.ResetTimer()
			heap := bulkHeap(func() { tr.Bulkload(kvs) })
			b.StopTimer()
			b.ReportMetric(float64(heap)/float64(nodeCount(tr)), "B/op")
		})
	}
}

// BenchmarkProbeCreateTree creates a tree over a fresh 2-server simulated
// cluster at the default LocksPerMS, so B/op and ns/op are tree creation's
// own cost: the lock manager, the caches, and the root. The root's first
// chunk is mapped outside the heap, so it is not in B/op.
// Building the cluster is not timed.
func BenchmarkProbeCreateTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 1})
		b.StartTimer()
		core.New(cl, core.ShermanConfig())
	}
}
