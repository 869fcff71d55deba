package core_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	"sherman/internal/cluster"
	core "sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/testutil"
)

// batchConfigsUnderTest spans the ablation axes the batch pipeline must be
// equivalent under: both node layouts crossed with command combination on
// and off (batching must not depend on combining being available).
func batchConfigsUnderTest() []core.Config {
	var out []core.Config
	for _, mode := range []layout.Mode{layout.TwoLevel, layout.Checksum} {
		for _, combine := range []bool{true, false} {
			cfg := core.ShermanConfig()
			if mode == layout.Checksum {
				cfg = core.FGPlusConfig()
			}
			cfg.Format = testutil.SmallFormat(mode)
			cfg.Combine = combine
			out = append(out, cfg)
		}
	}
	return out
}

// insertBatch, deleteBatch and lookupBatch run one same-kind batch through
// Exec, in the shape the sequential reference produces.
func insertBatch(h *core.Handle, kvs []layout.KV) {
	ops := make([]core.Op, len(kvs))
	for i, kv := range kvs {
		ops[i] = core.Op{Kind: stats.OpInsert, Key: kv.Key, Value: kv.Value}
	}
	h.Exec(ops)
}

func deleteBatch(h *core.Handle, keys []uint64) []bool {
	ops := make([]core.Op, len(keys))
	for i, k := range keys {
		ops[i] = core.Op{Kind: stats.OpDelete, Key: k}
	}
	found := make([]bool, len(keys))
	for i, r := range h.Exec(ops) {
		found[i] = r.Found
	}
	return found
}

func lookupBatch(h *core.Handle, keys []uint64) (values []uint64, found []bool) {
	ops := make([]core.Op, len(keys))
	for i, k := range keys {
		ops[i] = core.Op{Kind: stats.OpLookup, Key: k}
	}
	values, found = make([]uint64, len(keys)), make([]bool, len(keys))
	for i, r := range h.Exec(ops) {
		values[i], found[i] = r.Value, r.Found
	}
	return values, found
}

// TestBatchEquivalenceProperty checks, for deterministic seeds, that a random operation
// sequence applied through the batch API leaves the tree in a state
// observably equivalent to applying the same operations sequentially:
// same per-key answers along the way, same final contents, and a valid
// structure. Small leaves make every non-trivial batch straddle splits,
// and the delete mix targets absent keys too.
func TestBatchEquivalenceProperty(t *testing.T) {
	for _, cfg := range batchConfigsUnderTest() {
		cfg := cfg
		testutil.RunSeeds(t, 12, func(t *testing.T, seed uint64) {
			rng := testutil.RNG(seed)
			seqTree := core.New(cluster.New(cluster.Config{NumMS: 2, NumCS: 1}), cfg)
			batTree := core.New(cluster.New(cluster.Config{NumMS: 2, NumCS: 1}), cfg)
			seqH := seqTree.NewHandle(0, 0)
			batH := batTree.NewHandle(0, 0)

			const keySpace = 400
			for round := 0; round < 6; round++ {
				n := int(rng.Uint64N(60)) + 1
				switch rng.Uint64N(3) {
				case 0: // puts, with duplicate keys (last wins)
					kvs := make([]layout.KV, n)
					for i := range kvs {
						kvs[i] = layout.KV{Key: rng.Uint64N(keySpace) + 1, Value: rng.Uint64() | 1}
					}
					for _, kv := range kvs {
						seqH.Insert(kv.Key, kv.Value)
					}
					insertBatch(batH, kvs)
				case 1: // deletes, including absent keys
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = rng.Uint64N(keySpace) + 1
					}
					want := make([]bool, n)
					for i, k := range keys {
						want[i] = seqH.Delete(k)
					}
					got := deleteBatch(batH, keys)
					for i := range keys {
						if got[i] != want[i] {
							t.Fatalf("%s seed %d: DeleteBatch[%d] key %d = %v, sequential %v",
								cfg.Name(), seed, i, keys[i], got[i], want[i])
						}
					}
				default: // lookups
					keys := make([]uint64, n)
					for i := range keys {
						keys[i] = rng.Uint64N(keySpace) + 1
					}
					vals, found := lookupBatch(batH, keys)
					for i, k := range keys {
						wv, wok := seqH.Lookup(k)
						if found[i] != wok || (wok && vals[i] != wv) {
							t.Fatalf("%s seed %d: GetBatch[%d] key %d = (%d,%v), sequential (%d,%v)",
								cfg.Name(), seed, i, k, vals[i], found[i], wv, wok)
						}
					}
				}
			}
			// Final contents must match key by key.
			for k := uint64(1); k <= keySpace; k++ {
				wv, wok := seqH.Lookup(k)
				gv, gok := batH.Lookup(k)
				if wok != gok || (wok && wv != gv) {
					t.Fatalf("%s seed %d: final key %d = (%d,%v), sequential (%d,%v)",
						cfg.Name(), seed, k, gv, gok, wv, wok)
				}
			}
			if err := seqTree.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := batTree.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchConcurrentChurnValidate drives concurrent batch churn — mixed
// put, delete and get batches on per-thread stripes — then checks the
// structure with Validate and the contents against per-thread references.
func TestBatchConcurrentChurnValidate(t *testing.T) {
	for _, cfg := range batchConfigsUnderTest() {
		cl := testutil.NewCluster(t, 2, 2)
		tr := core.New(cl, cfg)
		const threads, rounds = 6, 40
		refs := make([]map[uint64]uint64, threads)

		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := tr.NewHandle(th%2, th)
				rng := rand.New(rand.NewPCG(uint64(th)+1, 0xfeed))
				ref := make(map[uint64]uint64)
				base := uint64(th) * 1_000_000
				for r := 0; r < rounds; r++ {
					n := int(rng.Uint64N(50)) + 1
					switch rng.Uint64N(4) {
					case 0:
						keys := make([]uint64, n)
						for i := range keys {
							keys[i] = base + rng.Uint64N(600) + 1
						}
						found := deleteBatch(h, keys)
						for i, k := range keys {
							if _, exists := ref[k]; exists != found[i] {
								t.Errorf("thread %d: DeleteBatch(%d) = %v, reference %v", th, k, found[i], exists)
								return
							}
							delete(ref, k)
						}
					case 1:
						keys := make([]uint64, n)
						for i := range keys {
							keys[i] = base + rng.Uint64N(600) + 1
						}
						vals, found := lookupBatch(h, keys)
						// Duplicate keys in one batch see the same state.
						for i, k := range keys {
							want, exists := ref[k]
							if found[i] != exists || (exists && vals[i] != want) {
								t.Errorf("thread %d: GetBatch(%d) = (%d,%v), reference (%d,%v)",
									th, k, vals[i], found[i], want, exists)
								return
							}
						}
					default:
						kvs := make([]layout.KV, n)
						for i := range kvs {
							kvs[i] = layout.KV{Key: base + rng.Uint64N(600) + 1, Value: rng.Uint64() | 1}
						}
						insertBatch(h, kvs)
						for _, kv := range kvs {
							ref[kv.Key] = kv.Value
						}
					}
				}
				refs[th] = ref
			}(th)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("%s combine=%v: batch churn failures", cfg.Name(), cfg.Combine)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s combine=%v: validate after batch churn: %v", cfg.Name(), cfg.Combine, err)
		}
		h := tr.NewHandle(0, 99)
		for th, ref := range refs {
			for k, v := range ref {
				if got, ok := h.Lookup(k); !ok || got != v {
					t.Fatalf("%s: thread %d key %d = (%d,%v), want (%d,true)", cfg.Name(), th, k, got, ok, v)
				}
			}
		}
	}
}

// TestBatchGuardReuseChains forces lock-slot aliasing with a single-slot
// GLT on a single memory server: every leaf shares one lock, so a batch
// walking many leaves must chain under the held guard instead of paying
// release + re-acquire per leaf — and stay correct doing so.
func TestBatchGuardReuseChains(t *testing.T) {
	for _, cfg := range batchConfigsUnderTest() {
		cfg.LocksPerMS = 1
		cl := testutil.NewCluster(t, 1, 1)
		tr := core.New(cl, cfg)
		h := tr.NewHandle(0, 0)

		const n = 500
		kvs := make([]layout.KV, n)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: uint64(i + 1000)}
		}
		insertBatch(h, kvs)
		// A fresh fill ends every group in a split (which releases the
		// guard); an update pass over the now-populated tree ends groups at
		// fence boundaries, where the single-slot GLT forces chaining.
		for i := range kvs {
			kvs[i].Value = kvs[i].Key + 2000
		}
		insertBatch(h, kvs)
		if h.Rec.BatchChainedLeaves == 0 {
			t.Errorf("%s combine=%v: no chained leaves despite single-slot GLT", cfg.Name(), cfg.Combine)
		}
		for k := uint64(1); k <= n; k++ {
			if v, ok := h.Lookup(k); !ok || v != k+2000 {
				t.Fatalf("%s: Lookup(%d) = (%d,%v), want (%d,true)", cfg.Name(), k, v, ok, k+2000)
			}
		}
		// Delete half through the chained path too.
		var del []uint64
		for k := uint64(2); k <= n; k += 2 {
			del = append(del, k)
		}
		found := deleteBatch(h, del)
		for i, ok := range found {
			if !ok {
				t.Fatalf("%s: DeleteBatch missed present key %d", cfg.Name(), del[i])
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", cfg.Name(), err)
		}
	}
}

// TestBatchAmortizesRoundTripsAndLocks is the headline claim at unit scale:
// updating K keys that share leaves must cost measurably fewer round trips
// and lock acquisitions through one Exec than through sequential Insert.
func TestBatchAmortizesRoundTripsAndLocks(t *testing.T) {
	run := func(batched bool) (roundTrips, lockAcq int64) {
		cfg := core.ShermanConfig()
		cfg.Format = testutil.SmallFormat(layout.TwoLevel)
		cl := testutil.NewCluster(t, 1, 1)
		tr := core.New(cl, cfg)
		kvs := make([]layout.KV, 200)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: 1}
		}
		tr.Bulkload(kvs)
		h := tr.NewHandle(0, 0)
		h.Lookup(1) // warm the caches
		h.Lookup(200)

		upd := make([]layout.KV, 120)
		for i := range upd {
			upd[i] = layout.KV{Key: uint64(i + 1), Value: 7}
		}
		rt0, acq0 := h.Metrics().RoundTrips, tr.LockStats().Acquisitions.Load()
		if batched {
			insertBatch(h, upd)
		} else {
			for _, kv := range upd {
				h.Insert(kv.Key, kv.Value)
			}
		}
		return h.Metrics().RoundTrips - rt0, tr.LockStats().Acquisitions.Load() - acq0
	}
	seqRT, seqAcq := run(false)
	batRT, batAcq := run(true)
	if batRT*2 >= seqRT {
		t.Errorf("batched updates took %d round trips vs %d sequential; want < half", batRT, seqRT)
	}
	if batAcq*2 >= seqAcq {
		t.Errorf("batched updates took %d lock acquisitions vs %d sequential; want < half", batAcq, seqAcq)
	}
}
