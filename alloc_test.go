package sherman

import (
	"runtime"
	"testing"
)

// The public Session path's heap traffic per operation, on the simulator.
// Submit+Wait costs exactly one allocation — the *Future, deliberately not
// pooled (DESIGN §11) — and the synchronous GetE/PutE cost none. The
// internal/core probes stop at the executor; these cover the layer above.

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
			{"Submit+Wait", 1, func(i int) { s.Submit(GetOp(key(i))).Wait() }},
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
