package sherman

import (
	"runtime"
	"testing"

	"sherman/internal/core"
)

// The public Session path's heap traffic per operation, on the simulator.
// Submit+Wait, GetE and PutE cost no allocation: the Submit after a Wait
// reuses the spent *Future (DESIGN §11). The internal/core probes stop at
// the executor; these cover the layer above, and the tree walks behind
// Tree.Stats and Tree.Validate, which read into per-depth scratch.

const probeKeys = 4096

// probeSession bulkloads probeKeys keys, opens a session at the given
// depth on compute server 0 and warms the cache and the lock path with one get and one put per key.
func probeSession(tb testing.TB, depth int) *Session {
	tb.Helper()
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := c.CreateTree(DefaultTreeOptions())
	if err != nil {
		tb.Fatal(err)
	}
	kvs := make([]KV, probeKeys)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		tb.Fatal(err)
	}
	s, err := tree.SessionAt(0, PipelineDepth(depth))
	if err != nil {
		tb.Fatal(err)
	}
	for k := uint64(1); k <= probeKeys; k++ {
		if _, ok, err := s.GetE(k); !ok || err != nil {
			tb.Fatalf("warm-up get %d: found %v, err %v", k, ok, err)
		}
		if err := s.PutE(k, k); err != nil {
			tb.Fatalf("warm-up put %d: %v", k, err)
		}
	}
	return s
}

// allocsPerOp is testing.AllocsPerRun without its rounding down: the mean
// mallocs of n calls of fn, after one warm-up call, on one P.
func allocsPerOp(n int, fn func(i int)) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func TestSessionAllocs(t *testing.T) {
	const n = 2000
	for _, depth := range []int{1, 8} {
		s := probeSession(t, depth)
		key := func(i int) uint64 { return uint64(i%probeKeys + 1) }
		for _, tc := range []struct {
			name string
			want float64
			op   func(i int)
		}{
			{"Submit+Wait", 0, func(i int) { s.Submit(GetOp(key(i))).Wait() }},
			{"GetE", 0, func(i int) { s.GetE(key(i)) }},
			{"PutE", 0, func(i int) { s.PutE(key(i), uint64(i)) }},
		} {
			if got := allocsPerOp(n, tc.op); got != tc.want {
				t.Errorf("depth %d: %s costs %.3f allocs/op, want %.0f", depth, tc.name, got, tc.want)
			}
		}
	}
}

// The ProbeSession benchmarks show the public path beside internal/core's
// Probe rows in the CI allocation smoke step (-benchmem).

func BenchmarkProbeSessionSubmit(b *testing.B) {
	s := probeSession(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(GetOp(uint64(i%probeKeys + 1))).Wait()
	}
}

func BenchmarkProbeSessionGetE(b *testing.B) {
	s := probeSession(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GetE(uint64(i%probeKeys + 1))
	}
}

func BenchmarkProbeSessionPutE(b *testing.B) {
	s := probeSession(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PutE(uint64(i%probeKeys+1), uint64(i))
	}
}

// walkTree bulkloads n keys into a default-options tree on a simulated
// 2-server cluster.
func walkTree(tb testing.TB, n int) *Tree {
	tb.Helper()
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := c.CreateTree(DefaultTreeOptions())
	if err != nil {
		tb.Fatal(err)
	}
	kvs := make([]KV, n)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(i)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		tb.Fatal(err)
	}
	return tree
}

// heapBytes returns the heap bytes fn allocates, on one P.
func heapBytes(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTreeWalkAllocs pins the walk's scratch: Stats and Validate read each
// level's children into one buffer per recursion depth, so on a 200k-key
// tree they allocate at most height × (IntCap+1) nodes plus a small
// constant, however many leaves the tree has. With a buffer per internal
// node Stats allocated about the tree's size, and Validate, which also
// copied each leaf's entries, three times that.
func TestTreeWalkAllocs(t *testing.T) {
	tree := walkTree(t, 200_000)
	st := tree.Stats()
	f := tree.tr.Config().Format
	limit := uint64(st.Height*(f.IntCap+1)*f.NodeSize) + 16<<10
	for _, tc := range []struct {
		name string
		walk func()
	}{
		{"Stats", func() { tree.Stats() }},
		{"Validate", func() {
			if err := tree.Validate(); err != nil {
				t.Error(err)
			}
		}},
	} {
		got := heapBytes(tc.walk)
		t.Logf("%s: %d B over %d leaves, height %d (limit %d B)", tc.name, got, st.LeafNodes, st.Height, limit)
		if got > limit {
			t.Errorf("%s of a %d-leaf tree of height %d allocated %d B, want at most %d",
				tc.name, st.LeafNodes, st.Height, got, limit)
		}
	}
}

// BenchmarkProbeTreeWalk runs one Stats and one Validate over a tree of
// b.N leaves, so ns/op and B/op are per leaf. It is not held at 0 allocs:
// a walk allocates its per-depth scratch once, so B/op falls toward 0 as
// the tree grows; a buffer per node or per leaf's entries shows as a
// floor.
func BenchmarkProbeTreeWalk(b *testing.B) {
	perLeaf := int(float64(core.ShermanConfig().Format.LeafCap) * 0.8) // the bulkload fill
	tree := walkTree(b, b.N*perLeaf)
	b.ReportAllocs()
	b.ResetTimer()
	tree.Stats()
	if err := tree.Validate(); err != nil {
		b.Fatal(err)
	}
}
