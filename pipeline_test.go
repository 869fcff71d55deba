package sherman

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"sherman/internal/core"
	"sherman/internal/testutil"
)

// pipelineDepthsUnderTest spans the depths the async API must be
// sequential-equivalent at.
var pipelineDepthsUnderTest = []int{1, 2, 4, 8}

// TestPipelineSequentialEquivalenceProperty checks, for deterministic
// seeds, through the public API, that a random Submit stream at every
// pipeline depth is observably equivalent to the same operations applied
// sequentially — including puts that split small leaves mid-pipeline,
// interleaved deletes of absent keys, and occasional scans — across the
// shared harness's ablation grid.
func TestPipelineSequentialEquivalenceProperty(t *testing.T) {
	for _, opts := range gridOptions() {
		opts := opts
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 5, func(t *testing.T, seed uint64) {
				rng := testutil.RNG(seed)
				depth := pipelineDepthsUnderTest[rng.Uint64N(uint64(len(pipelineDepthsUnderTest)))]
				mk := func(d int) testSession {
					c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
					if err != nil {
						t.Fatal(err)
					}
					s := openSession(t, testTree(t, c, opts), 0, PipelineDepth(d))
					return s
				}
				seq, pipe := mk(1), mk(depth)

				const keySpace = 250
				var futures []*Future
				var wants []Result
				for i := 0; i < 400; i++ {
					k := rng.Uint64N(keySpace) + 1
					var op Op
					switch rng.Uint64N(8) {
					case 0, 1, 2:
						op = PutOp(k, rng.Uint64()|1)
					case 3:
						op = DeleteOp(rng.Uint64N(2*keySpace) + 1) // half absent
					case 4:
						op = ScanOp(k, int(rng.Uint64N(10))+1)
					default:
						op = GetOp(k)
					}
					var want Result
					switch op.Kind {
					case OpPut:
						seq.Put(op.Key, op.Value)
					case OpDelete:
						want.Found = seq.Delete(op.Key)
					case OpScan:
						want.KVs = seq.Scan(op.Key, op.Span)
					default:
						want.Value, want.Found = seq.Get(op.Key)
					}
					futures = append(futures, pipe.Submit(op))
					wants = append(wants, want)
				}
				if err := pipe.Flush(); err != nil {
					t.Fatal(err)
				}
				for i, f := range futures {
					got, want := f.Wait(), wants[i]
					if got.Err != nil || got.Found != want.Found || got.Value != want.Value || len(got.KVs) != len(want.KVs) {
						t.Fatalf("depth %d: op %d = %+v, sequential %+v", depth, i, got, want)
					}
					for j := range want.KVs {
						if got.KVs[j] != want.KVs[j] {
							t.Fatalf("depth %d: op %d scan row %d mismatch", depth, i, j)
						}
					}
				}
				for k := uint64(1); k <= keySpace; k++ {
					wv, wok := seq.Get(k)
					gv, gok := pipe.Get(k)
					if wok != gok || (wok && wv != gv) {
						t.Fatalf("depth %d: final key %d mismatch", depth, k)
					}
				}
			})
		})
	}
}

// TestExecMixedEquivalenceProperty checks that mixed Exec batches — puts,
// gets, deletes and scans in one call — match sequential execution at
// every depth across the grid, including same-key read-after-write chains
// inside one batch.
func TestExecMixedEquivalenceProperty(t *testing.T) {
	for _, opts := range gridOptions() {
		opts := opts
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 5, func(t *testing.T, seed uint64) {
				rng := testutil.RNG(seed)
				depth := pipelineDepthsUnderTest[rng.Uint64N(uint64(len(pipelineDepthsUnderTest)))]
				c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
				if err != nil {
					t.Fatal(err)
				}
				pipe := openSession(t, testTree(t, c, opts), 0, PipelineDepth(depth))
				c2, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
				if err != nil {
					t.Fatal(err)
				}
				seq := openSession(t, testTree(t, c2, opts), 0)

				const keySpace = 200
				for round := 0; round < 4; round++ {
					n := int(rng.Uint64N(80)) + 1
					ops := make([]Op, n)
					for i := range ops {
						k := rng.Uint64N(keySpace) + 1
						switch rng.Uint64N(6) {
						case 0, 1:
							ops[i] = PutOp(k, rng.Uint64()|1)
						case 2:
							ops[i] = DeleteOp(k)
						case 3:
							ops[i] = ScanOp(k, int(rng.Uint64N(8))+1)
						default:
							ops[i] = GetOp(k)
						}
					}
					got := pipe.Exec(ops)
					for i, op := range ops {
						var want Result
						switch op.Kind {
						case OpPut:
							seq.Put(op.Key, op.Value)
						case OpDelete:
							want.Found = seq.Delete(op.Key)
						case OpScan:
							want.KVs = seq.Scan(op.Key, op.Span)
						default:
							want.Value, want.Found = seq.Get(op.Key)
						}
						g := got[i]
						if g.Err != nil || g.Found != want.Found || g.Value != want.Value || len(g.KVs) != len(want.KVs) {
							t.Fatalf("depth %d: batch op %d (%+v) = %+v, sequential %+v", depth, i, op, g, want)
						}
						for j := range want.KVs {
							if g.KVs[j] != want.KVs[j] {
								t.Fatalf("depth %d: batch op %d scan row %d mismatch", depth, i, j)
							}
						}
					}
				}
				for k := uint64(1); k <= keySpace; k++ {
					wv, wok := seq.Get(k)
					gv, gok := pipe.Get(k)
					if wok != gok || (wok && wv != gv) {
						t.Fatalf("final key %d mismatch", k)
					}
				}
			})
		})
	}
}

// TestPipelineConcurrentSessions races pipelined sessions on per-worker key
// stripes — splits and deletes mid-pipeline included — then validates the
// tree and checks contents. Run under -race this is the pipelined
// counterpart of the concurrent batch churn test.
func TestPipelineConcurrentSessions(t *testing.T) {
	c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tree := testTree(t, c, TreeOptions{NodeSize: testutil.SmallNodeSize})

	const workers = 8
	refs := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := tree.SessionAt(w%c.ComputeServers(), PipelineDepth(1+w%4*2))
			if err != nil {
				t.Error(err)
				return
			}
			rng := testutil.RNG(uint64(w) + 1)
			ref := make(map[uint64]uint64)
			base := uint64(w)*100_000 + 1
			for i := 0; i < 900; i++ {
				k := base + rng.Uint64N(500)
				switch rng.Uint64N(5) {
				case 0:
					s.Submit(DeleteOp(k))
					delete(ref, k)
				case 1:
					got := s.Submit(GetOp(k)).Wait()
					want, exists := ref[k]
					if got.Found != exists || (exists && got.Value != want) {
						t.Errorf("worker %d: pipelined Get(%d) = (%d,%v), reference (%d,%v)",
							w, k, got.Value, got.Found, want, exists)
						return
					}
				default:
					v := rng.Uint64() | 1
					s.Submit(PutOp(k, v))
					ref[k] = v
				}
			}
			if err := s.Flush(); err != nil {
				t.Error(err)
			}
			refs[w] = ref
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after concurrent pipelined churn: %v", err)
	}
	s := openSession(t, tree, 0)
	for w, ref := range refs {
		for k, v := range ref {
			if got, ok := s.Get(k); !ok || got != v {
				t.Fatalf("worker %d key %d = (%d,%v), want (%d,true)", w, k, got, ok, v)
			}
		}
	}
}

// TestSessionAtAndTypedErrors covers the typed-error surface: out-of-range
// compute servers and reserved-key writes via Submit, Exec and the
// synchronous helpers.
func TestSessionAtAndTypedErrors(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())

	for _, cs := range []int{-1, c.ComputeServers(), 99} {
		if _, err := tree.SessionAt(cs); !errors.Is(err, ErrBadComputeServer) {
			t.Errorf("SessionAt(%d) error = %v, want ErrBadComputeServer", cs, err)
		}
	}
	s := openSession(t, tree, 0, PipelineDepth(4))
	if s.PipelineDepth() != 4 {
		t.Errorf("PipelineDepth() = %d, want 4", s.PipelineDepth())
	}

	if r := s.Submit(PutOp(0, 1)).Wait(); !errors.Is(r.Err, ErrReservedKey) {
		t.Errorf("Submit(PutOp(0)) err = %v, want ErrReservedKey", r.Err)
	}
	if r := s.Submit(DeleteOp(0)).Wait(); !errors.Is(r.Err, ErrReservedKey) {
		t.Errorf("Submit(DeleteOp(0)) err = %v, want ErrReservedKey", r.Err)
	}
	if r := s.Submit(Op{Kind: OpKind(99)}).Wait(); r.Err == nil {
		t.Error("Submit of unknown kind reported no error")
	}
	if r := s.Submit(ScanOp(1, 0)).Wait(); r.Err != nil || r.KVs != nil {
		t.Errorf("Submit(ScanOp span 0) = %+v, want empty", r)
	}

	// A bad op inside Exec errors in place; the rest of the batch applies.
	res := s.Exec([]Op{PutOp(11, 110), PutOp(0, 1), PutOp(12, 120)})
	if !errors.Is(res[1].Err, ErrReservedKey) || res[0].Err != nil || res[2].Err != nil {
		t.Errorf("Exec partial errors = [%v %v %v]", res[0].Err, res[1].Err, res[2].Err)
	}
	if v, ok := s.Get(12); !ok || v != 120 {
		t.Errorf("Get(12) after partial-error Exec = (%d,%v), want (120,true)", v, ok)
	}

	// The synchronous helpers report the same typed errors.
	if err := s.PutE(0, 1); !errors.Is(err, ErrReservedKey) {
		t.Errorf("PutE(0) err = %v, want ErrReservedKey", err)
	}
	if _, err := s.DeleteE(0); !errors.Is(err, ErrReservedKey) {
		t.Errorf("DeleteE(0) err = %v, want ErrReservedKey", err)
	}
	if kvs, err := s.ScanE(1, 0); err != nil || kvs != nil {
		t.Errorf("ScanE(span 0) = (%v, %v), want empty", kvs, err)
	}
}

// TestCursor checks the Scan convenience: full iteration matches one big
// Scan, resumes across leaf boundaries, and terminates on empty ranges.
func TestCursor(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, TreeOptions{NodeSize: testutil.SmallNodeSize}) // small leaves: many refills
	s := openSession(t, tree, 0)
	kvs := make([]KV, 500)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i+1) * 3, Value: uint64(i + 7)}
	}
	if err := tree.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}

	cur := s.Cursor(100)
	want := s.Scan(100, len(kvs))
	for i, w := range want {
		kv, ok := cur.Next()
		if !ok || kv != w {
			t.Fatalf("cursor row %d = (%+v,%v), want %+v", i, kv, ok, w)
		}
	}
	if kv, ok := cur.Next(); ok {
		t.Errorf("cursor returned %+v past the end", kv)
	}
	if _, ok := s.Cursor(10_000_000).Next(); ok {
		t.Error("cursor on empty range returned a row")
	}
}

// TestPipelineVirtualTime: Submit must not block the session's virtual
// clock on completions — only Wait and Flush do — and pipelined sessions
// report hiding stats.
func TestPipelineVirtualTime(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	kvs := make([]KV, 5000)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: 1}
	}
	if err := tree.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}
	s := openSession(t, tree, 0, PipelineDepth(4))
	s.Get(1) // warm the cache

	before := s.VirtualNow()
	var fs []*Future
	for i := 0; i < 4; i++ {
		fs = append(fs, s.Submit(GetOp(uint64(1+i*1000))))
	}
	submitted := s.VirtualNow()
	if adv := submitted - before; adv >= fs[0].CompleteAtV()-before {
		t.Errorf("4 submits advanced the clock %d ns, past the first completion", adv)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := s.VirtualNow()
	for _, f := range fs {
		if f.CompleteAtV() > flushed {
			t.Errorf("completion %d after Flush clock %d", f.CompleteAtV(), flushed)
		}
	}
	st := s.Stats()
	if st.PipelinedOps != 5 { // the warming Get pipelines too
		t.Errorf("PipelinedOps = %d, want 5", st.PipelinedOps)
	}
	if st.LatencyHidingRatio <= 1 {
		t.Errorf("LatencyHidingRatio = %.2f, want > 1", st.LatencyHidingRatio)
	}
}

// TestDroppedSessionRunnersExit: a depth-8 session over TCP runs its
// pipeline on up to eight runner goroutines. Once the session is
// unreachable its cleanup closes the executor and they exit, so opening and
// dropping sessions in a loop leaves the goroutine count at its baseline
// instead of pinning every dropped session's tree.
func TestDroppedSessionRunnersExit(t *testing.T) {
	c, _ := fabricCluster(t, testutil.TCP, 2, 1, 0)
	tree := testTree(t, c, TreeOptions{NodeSize: testutil.SmallNodeSize, LocksPerMS: 64})
	base := runtime.NumGoroutine()
	peak := base
	for round := range 8 {
		s := openSession(t, tree, 0, PipelineDepth(8))
		for k := range 32 {
			s.Submit(PutOp(uint64(round*32+k+1), 1))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, runtime.NumGoroutine())
	}
	if peak <= base {
		t.Fatal("no session started a runner goroutine")
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after dropping the sessions, %d before opening them (peak %d)",
				runtime.NumGoroutine(), base, peak)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDroppedSimulatedTreeFreedInOneGC: a simulated deployment whose depth-8
// session is dropped is garbage after one collection. The session's
// executor has no runner goroutines on the simulator, so it registers no
// cleanup; a cleanup's argument reaches the tree and the cluster and would
// keep them, memory servers' mapped chunks included, for a second cycle.
func TestDroppedSimulatedTreeFreedInOneGC(t *testing.T) {
	tr := func() weak.Pointer[core.Tree] {
		c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := c.CreateTree(DefaultTreeOptions())
		if err != nil {
			t.Fatal(err)
		}
		s := openSession(t, tree, 0, PipelineDepth(8))
		for k := range 64 {
			s.Submit(PutOp(uint64(k+1), 1))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		return weak.Make(tree.tr)
	}()
	runtime.GC()
	for deadline := time.Now().Add(time.Second); tr.Value() != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the dropped simulated tree is still reachable 1 s after one GC")
		}
	}
}
