package sherman

import (
	"sync"
	"testing"

	"sherman/internal/testutil"
)

// TestBatchSequentialEquivalenceProperty checks, for deterministic seeds,
// through the public API, that same-kind batches through Exec are observably
// equivalent to the same operations applied sequentially — including
// batches that straddle leaf splits and deletes of absent keys — across
// the shared harness's ablation grid.
func TestBatchSequentialEquivalenceProperty(t *testing.T) {
	for _, opts := range gridOptions() {
		opts := opts
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 6, func(t *testing.T, seed uint64) {
				rng := testutil.RNG(seed)
				mk := func() testSession {
					c, err := NewCluster(ClusterConfig{MemoryServers: 2, ComputeServers: 1})
					if err != nil {
						t.Fatal(err)
					}
					return openSession(t, testTree(t, c, opts), 0)
				}
				seq, bat := mk(), mk()

				const keySpace = 300
				for round := 0; round < 5; round++ {
					n := int(rng.Uint64N(80)) + 1
					switch rng.Uint64N(3) {
					case 0:
						kvs := make([]KV, n)
						for i := range kvs {
							kvs[i] = KV{Key: rng.Uint64N(keySpace) + 1, Value: rng.Uint64() | 1}
						}
						for _, kv := range kvs {
							seq.Put(kv.Key, kv.Value)
						}
						bat.PutBatch(kvs)
					case 1:
						keys := make([]uint64, n)
						for i := range keys {
							keys[i] = rng.Uint64N(2*keySpace) + 1 // half absent
						}
						got := bat.DeleteBatch(keys)
						for i, k := range keys {
							if want := seq.Delete(k); got[i] != want {
								t.Fatalf("DeleteBatch(%d) = %v, want %v", k, got[i], want)
							}
						}
					default:
						keys := make([]uint64, n)
						for i := range keys {
							keys[i] = rng.Uint64N(keySpace) + 1
						}
						vals, found := bat.GetBatch(keys)
						for i, k := range keys {
							wv, wok := seq.Get(k)
							if found[i] != wok || (wok && vals[i] != wv) {
								t.Fatalf("GetBatch(%d) = (%d,%v), want (%d,%v)", k, vals[i], found[i], wv, wok)
							}
						}
					}
				}
				for k := uint64(1); k <= keySpace; k++ {
					wv, wok := seq.Get(k)
					gv, gok := bat.Get(k)
					if wok != gok || (wok && wv != gv) {
						t.Fatalf("final key %d mismatch: batch (%d,%v), sequential (%d,%v)", k, gv, gok, wv, wok)
					}
				}
			})
		})
	}
}

// name renders the ablation cell for subtest names.
func (a *AdvancedOptions) name() string {
	mode := "checksum"
	if a.TwoLevelVersions {
		mode = "two-level"
	}
	if a.CombineCommands {
		return mode + "/combine"
	}
	return mode + "/nocombine"
}

// TestBatchConcurrentSessions runs concurrent batched writers on disjoint
// stripes, then validates the tree and checks contents — the public-API
// face of the concurrent-batch-churn acceptance criterion.
func TestBatchConcurrentSessions(t *testing.T) {
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
			s := openSession(t, tree, w%c.ComputeServers())
			rng := testutil.RNG(uint64(w) + 1)
			ref := make(map[uint64]uint64)
			base := uint64(w)*100_000 + 1
			for round := 0; round < 25; round++ {
				n := int(rng.Uint64N(40)) + 1
				if rng.Uint64N(4) == 0 {
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = base + rng.Uint64N(400)
					}
					s.DeleteBatch(keys)
					for _, k := range keys {
						delete(ref, k)
					}
				} else {
					kvs := make([]KV, n)
					for i := range kvs {
						kvs[i] = KV{Key: base + rng.Uint64N(400), Value: rng.Uint64() | 1}
					}
					s.PutBatch(kvs)
					for _, kv := range kvs {
						ref[kv.Key] = kv.Value
					}
				}
			}
			refs[w] = ref
		}(w)
	}
	wg.Wait()

	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after concurrent batch churn: %v", err)
	}
	s := openSession(t, tree, 0)
	for w, ref := range refs {
		keys := make([]uint64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		vals, found := s.GetBatch(keys)
		for i, k := range keys {
			if !found[i] || vals[i] != ref[k] {
				t.Fatalf("worker %d key %d: GetBatch = (%d,%v), want (%d,true)", w, k, vals[i], found[i], ref[k])
			}
		}
	}

	st := s.Stats()
	if st.Batches == 0 || st.BatchedOps == 0 || st.BatchLeafGroups == 0 {
		t.Errorf("batch counters empty: %+v", st)
	}
	if st.BatchedOps < st.BatchLeafGroups {
		t.Errorf("BatchedOps %d < BatchLeafGroups %d: grouping never amortized", st.BatchedOps, st.BatchLeafGroups)
	}

	// A point write runs the leaf-group write path as a group of one, but it
	// is no batch: a session that only Submits reports no batch leaf group.
	ps := openSession(t, tree, 1, PipelineDepth(4))
	for k := uint64(1); k <= 64; k++ {
		ps.Submit(PutOp(k, k))
		ps.Submit(GetOp(k))
		if k%4 == 0 {
			ps.Submit(DeleteOp(k))
		}
	}
	ps.check(ps.Flush())
	if st := ps.Stats(); st.RoundTrips == 0 || st.Batches != 0 || st.BatchLeafGroups != 0 {
		t.Errorf("Submit-only session: %+v, want round trips and no batch or batch leaf group", st)
	}
}

// TestBatchEmpty covers the degenerate input: an empty batch touches
// nothing and returns no results.
func TestBatchEmpty(t *testing.T) {
	c := testCluster(t)
	tree := testTree(t, c, DefaultTreeOptions())
	s := openSession(t, tree, 0)
	if res := s.Exec(nil); len(res) != 0 {
		t.Errorf("Exec(nil) returned %d results", len(res))
	}
	if st := s.Stats(); st.Batches != 0 || st.RoundTrips != 0 {
		t.Errorf("Exec(nil) touched the fabric: %+v", st)
	}
}
