package core_test

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"sherman/internal/cluster"
	core "sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/testutil"
)

// TestMixedChurnAgainstReference runs a random mix of insert, update,
// delete and lookup on disjoint per-thread stripes and compares the whole
// tree against per-thread reference maps, in both consistency modes.
func TestMixedChurnAgainstReference(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 2)
		tr := core.New(cl, cfg)
		const threads, ops = 6, 3000
		refs := make([]map[uint64]uint64, threads)

		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := tr.NewHandle(th%2, th)
				rng := rand.New(rand.NewPCG(uint64(th)+1, 0xc0ffee))
				ref := make(map[uint64]uint64)
				base := uint64(th) * 1_000_000
				for i := 0; i < ops; i++ {
					k := base + rng.Uint64N(500) + 1
					switch rng.Uint64N(10) {
					case 0, 1, 2:
						if _, exists := ref[k]; h.Delete(k) != exists {
							t.Errorf("thread %d: delete(%d) mismatch with reference", th, k)
							return
						}
						delete(ref, k)
					case 3:
						v, ok := h.Lookup(k)
						want, exists := ref[k]
						if ok != exists || (ok && v != want) {
							t.Errorf("thread %d: lookup(%d) = (%d,%v), want (%d,%v)", th, k, v, ok, want, exists)
							return
						}
					default:
						v := rng.Uint64() | 1
						h.Insert(k, v)
						ref[k] = v
					}
				}
				refs[th] = ref
			}(th)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("%s: churn failures", cfg.Name())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", cfg.Name(), err)
		}
		h := tr.NewHandle(0, 77)
		for th, ref := range refs {
			for k, v := range ref {
				if got, ok := h.Lookup(k); !ok || got != v {
					t.Fatalf("%s: thread %d key %d = (%d,%v), want (%d,true)", cfg.Name(), th, k, got, ok, v)
				}
			}
		}
	}
}

// TestRangeUnderChurn verifies every row a concurrent scan returns was a
// value actually written for its key (leaf-level consistency, §4.4), while
// half the threads insert into the scanned region.
func TestRangeUnderChurn(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 2)
		tr := core.New(cl, cfg)
		const n = 4000
		kvs := make([]layout.KV, n)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: enc(uint64(i+1), 0)}
		}
		tr.Bulkload(kvs)

		var stop atomic.Bool
		var wg sync.WaitGroup
		for th := 0; th < 4; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := tr.NewHandle(th%2, th)
				rng := rand.New(rand.NewPCG(uint64(th)+1, 5))
				for i := uint64(1); !stop.Load(); i++ {
					k := rng.Uint64N(n) + 1
					h.Insert(k, enc(k, i))
				}
			}(th)
		}

		h := tr.NewHandle(0, 99)
		for round := 0; round < 60; round++ {
			from := uint64(round*50 + 1)
			rows := h.Range(from, 100)
			prev := uint64(0)
			for _, kv := range rows {
				if kv.Key < from || kv.Key <= prev {
					t.Fatalf("%s: scan order violated at key %d (from %d, prev %d)", cfg.Name(), kv.Key, from, prev)
				}
				prev = kv.Key
				if decKey(kv.Value) != kv.Key {
					t.Fatalf("%s: scan returned torn row: key %d carries value for key %d",
						cfg.Name(), kv.Key, decKey(kv.Value))
				}
			}
		}
		stop.Store(true)
		wg.Wait()
	}
}

// enc packs (key, version) so a reader can detect cross-key tearing.
func enc(key, ver uint64) uint64 { return key<<20 | (ver & 0xfffff) }

func decKey(v uint64) uint64 { return v >> 20 }

// TestDeleteHeavyReuse fills leaves, deletes everything, and refills:
// cleared slots must be reusable and lookups must stay exact throughout.
func TestDeleteHeavyReuse(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 1)
		tr := core.New(cl, cfg)
		h := tr.NewHandle(0, 0)
		const n = 1500
		for round := 0; round < 3; round++ {
			for k := uint64(1); k <= n; k++ {
				h.Insert(k, k+uint64(round)*1000000)
			}
			for k := uint64(1); k <= n; k++ {
				if v, ok := h.Lookup(k); !ok || v != k+uint64(round)*1000000 {
					t.Fatalf("%s round %d: lookup(%d) = (%d,%v)", cfg.Name(), round, k, v, ok)
				}
			}
			for k := uint64(1); k <= n; k++ {
				if !h.Delete(k) {
					t.Fatalf("%s round %d: delete(%d) missing", cfg.Name(), round, k)
				}
			}
			for k := uint64(1); k <= n; k += 13 {
				if _, ok := h.Lookup(k); ok {
					t.Fatalf("%s round %d: key %d survived delete", cfg.Name(), round, k)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", cfg.Name(), err)
		}
	}
}

// TestUpdateInPlaceWriteSize checks the two-level layout writes back one
// entry (~18 B at the test geometry) for non-structural updates while the
// checksum layout writes whole nodes — Figure 14(c)'s distinction.
func TestUpdateInPlaceWriteSize(t *testing.T) {
	shermanCfg := core.ShermanConfig()
	shermanCfg.Format = testutil.SmallFormat(layout.TwoLevel)
	fgCfg := core.FGPlusConfig()
	fgCfg.Format = testutil.SmallFormat(layout.Checksum)

	measure := func(cfg core.Config) int64 {
		cl := testutil.NewCluster(t, 1, 1)
		tr := core.New(cl, cfg)
		kvs := make([]layout.KV, 100)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: 1}
		}
		tr.Bulkload(kvs)
		h := tr.NewHandle(0, 0)
		h.Lookup(50) // warm the path
		before := h.Metrics().WriteBytes
		h.Insert(50, 99) // update in place, no split
		return h.Metrics().WriteBytes - before
	}

	shermanBytes := measure(shermanCfg)
	fgBytes := measure(fgCfg)
	entrySize := int64(shermanCfg.Format.LeafEntSize)
	// Sherman: one entry plus the 2-byte lock-release WRITE (combined).
	if shermanBytes > entrySize+8 {
		t.Errorf("two-level update wrote %d B, want <= entry (%d) + release", shermanBytes, entrySize)
	}
	if fgBytes < int64(fgCfg.Format.NodeSize) {
		t.Errorf("checksum update wrote %d B, want >= node size %d", fgBytes, fgCfg.Format.NodeSize)
	}
}

// TestCombineSavesRoundTrip measures that command combination reduces a
// non-structural insert from 4 round trips to 3 (Figure 14(b)), and that the
// acquire doorbell, combining the lock CAS with the leaf READ, takes it to 2.
func TestCombineSavesRoundTrip(t *testing.T) {
	measure := func(combine, doorbell bool) int64 {
		cfg := core.ShermanConfig()
		cfg.Format = testutil.SmallFormat(layout.TwoLevel)
		cfg.Combine = combine
		cfg.AcquireDoorbell = doorbell
		cl := testutil.NewCluster(t, 1, 1)
		tr := core.New(cl, cfg)
		kvs := make([]layout.KV, 100)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: 1}
		}
		tr.Bulkload(kvs)
		h := tr.NewHandle(0, 0)
		h.Lookup(50) // warm the cache so locate costs no round trips
		h.Metrics().BeginOp()
		h.Insert(50, 2)
		return h.Metrics().OpRoundTrips
	}
	if got := measure(true, false); got != 3 {
		t.Errorf("combined insert took %d round trips, want 3 (lock, read, write+unlock)", got)
	}
	if got := measure(false, false); got != 4 {
		t.Errorf("uncombined insert took %d round trips, want 4", got)
	}
	if got := measure(true, true); got != 2 {
		t.Errorf("insert with the acquire doorbell took %d round trips, want 2 (lock+read, write+unlock)", got)
	}
}

// TestPublishedConfigPinned pins what the reproduction figures run: the
// published Sherman write, AblationConfig(StepTwoLevelVer), is ShermanConfig
// field for field except the acquire doorbell, and the sixth ablation step is
// ShermanConfig itself.
func TestPublishedConfigPinned(t *testing.T) {
	published := core.Config{
		Format:  layout.DefaultFormat(layout.TwoLevel),
		Combine: true,
		Locks:   hocl.Sherman(),
	}
	if got := core.AblationConfig(core.StepTwoLevelVer); got != published {
		t.Errorf("AblationConfig(StepTwoLevelVer) = %+v, want the published write %+v", got, published)
	}
	sherman := core.ShermanConfig()
	if got := core.AblationConfig(core.StepAcquireDoorbell); got != sherman {
		t.Errorf("AblationConfig(StepAcquireDoorbell) = %+v, want ShermanConfig %+v", got, sherman)
	}
	sherman.AcquireDoorbell = false
	if sherman != published {
		t.Errorf("ShermanConfig without the doorbell = %+v, want %+v", sherman, published)
	}
	if steps := core.AblationSteps(); steps[len(steps)-1] != core.StepAcquireDoorbell || steps[len(steps)-2] != core.StepTwoLevelVer {
		t.Errorf("AblationSteps = %v, want +Acquire Doorbell right after +2-Level Ver", steps)
	}
}

// TestHandoverSavesRoundTrip: a handed-over lock acquisition skips the
// remote CAS, giving 2-round-trip writes (Figure 14(b)'s 3.6% bucket).
func TestHandoverSavesRoundTrip(t *testing.T) {
	cfg := core.ShermanConfig()
	cfg.Format = testutil.SmallFormat(layout.TwoLevel)
	cl := testutil.NewCluster(t, 1, 1)
	tr := core.New(cl, cfg)
	kvs := make([]layout.KV, 10)
	for i := range kvs {
		kvs[i] = layout.KV{Key: uint64(i + 1), Value: 1}
	}
	tr.Bulkload(kvs)

	// Many same-CS threads hammering one key force handovers.
	const threads = 6
	var wg sync.WaitGroup
	var sawTwoRT atomic.Bool
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			h := tr.NewHandle(0, th)
			h.Lookup(5)
			for i := 0; i < 500; i++ {
				h.Metrics().BeginOp()
				h.Insert(5, uint64(i))
				if h.Metrics().OpRoundTrips == 2 {
					sawTwoRT.Store(true)
				}
			}
		}(th)
	}
	wg.Wait()
	if !sawTwoRT.Load() {
		t.Error("no 2-round-trip (handover) writes observed under same-CS contention")
	}
	if tr.LockStats().Handovers.Load() == 0 {
		t.Error("no handovers recorded")
	}
}

// TestKeySizeFormats exercises the fixed-capacity formats of the key-size
// sensitivity sweep (§5.6.1) end to end.
func TestKeySizeFormats(t *testing.T) {
	for _, ks := range []int{16, 64, 256, 1024} {
		for _, mode := range []layout.Mode{layout.TwoLevel, layout.Checksum} {
			cfg := core.ShermanConfig()
			if mode == layout.Checksum {
				cfg = core.FGPlusConfig()
			}
			cfg.Format = layout.NewFormatFixedCap(mode, ks, 32)
			if cfg.Format.LeafCap != 32 {
				t.Fatalf("key %d mode %v: leaf cap %d, want 32", ks, mode, cfg.Format.LeafCap)
			}
			cl := testutil.NewCluster(t, 2, 1)
			tr := core.New(cl, cfg)
			h := tr.NewHandle(0, 0)
			for k := uint64(1); k <= 300; k++ {
				h.Insert(k, k*5)
			}
			for k := uint64(1); k <= 300; k++ {
				if v, ok := h.Lookup(k); !ok || v != k*5 {
					t.Fatalf("key %d mode %v: lookup(%d) = (%d,%v)", ks, mode, k, v, ok)
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("key %d mode %v: %v", ks, mode, err)
			}
		}
	}
}

// TestLookupPropertyRandomTrees is a seeded property test over random small
// trees:
// bulkload a random sorted set, then every loaded key must be found and a
// sample of absent keys must not.
func TestLookupPropertyRandomTrees(t *testing.T) {
	cfg := core.ShermanConfig()
	cfg.Format = testutil.SmallFormat(layout.TwoLevel)
	testutil.RunSeeds(t, 25, func(t *testing.T, seed uint64) {
		rng := testutil.RNG(seed)
		size := int(rng.Uint64N(2000)) + 1
		present := make(map[uint64]bool, size)
		kvs := make([]layout.KV, 0, size)
		k := uint64(0)
		for i := 0; i < size; i++ {
			k += rng.Uint64N(50) + 1
			kvs = append(kvs, layout.KV{Key: k, Value: k ^ 0xabcdef})
			present[k] = true
		}
		cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 1})
		tr := core.New(cl, cfg)
		tr.Bulkload(kvs)
		h := tr.NewHandle(0, 0)
		for i := 0; i < 50; i++ {
			kv := kvs[rng.IntN(len(kvs))]
			if v, ok := h.Lookup(kv.Key); !ok || v != kv.Value {
				t.Fatalf("size %d: Lookup(%d) = (%d,%v), want (%d,true)", size, kv.Key, v, ok, kv.Value)
			}
			probe := rng.Uint64N(k+100) + 1
			if _, ok := h.Lookup(probe); ok != present[probe] {
				t.Fatalf("size %d: probe %d present=%v, want %v", size, probe, ok, present[probe])
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestScanBeyondStaleSteering is a regression test for a scan livelock:
// a stale top-cache copy of a since-split internal node steered scans to a
// leaf left of the cursor, and the scan retraversed through the same stale
// copy forever instead of walking the B-link sibling chain. The sequence
// below reproduces the setup: warm a handle's top cache on a small tree,
// grow the tree through that region with another handle, then scan from
// the grown tail with the stale handle.
func TestScanBeyondStaleSteering(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 1)
		tr := core.New(cl, cfg)
		kvs := make([]layout.KV, 200)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: uint64(i + 1)}
		}
		tr.Bulkload(kvs)

		// Warm reader: caches the top levels of the small tree.
		reader := tr.NewHandle(0, 0)
		reader.Lookup(100)

		// Writer: grow the right edge aggressively so the reader's cached
		// top copies go stale (the rightmost subtree splits many times).
		writer := tr.NewHandle(0, 1)
		for k := uint64(201); k <= 6000; k++ {
			writer.Insert(k, k)
		}

		// The stale reader scans from deep inside the grown region.
		rows := reader.Range(5500, 100)
		if len(rows) != 100 {
			t.Fatalf("%s: scan returned %d rows, want 100", cfg.Name(), len(rows))
		}
		for i, kv := range rows {
			want := uint64(5500 + i)
			if kv.Key != want || kv.Value != want {
				t.Fatalf("%s: row %d = %+v, want key %d", cfg.Name(), i, kv, want)
			}
		}
	}
}

// TestStaleTopCacheFlushed: after enough level-0 sibling hops the handle
// flushes its top cache, so later lookups re-fetch fresh top nodes and stop
// paying the walk. This guards the noteSiblingHop heuristic.
func TestStaleTopCacheFlushed(t *testing.T) {
	cfg := testutil.Configs()[0]
	cl := testutil.NewCluster(t, 1, 1)
	tr := core.New(cl, cfg)
	kvs := make([]layout.KV, 100)
	for i := range kvs {
		kvs[i] = layout.KV{Key: uint64(i + 1), Value: 1}
	}
	tr.Bulkload(kvs)

	reader := tr.NewHandle(0, 0)
	reader.Lookup(50) // warm top cache on the small tree

	writer := tr.NewHandle(0, 1)
	for k := uint64(101); k <= 5000; k++ {
		writer.Insert(k, k)
	}

	// First lookup in the grown region pays sibling hops and triggers the
	// flush; a subsequent lookup must be near-minimal again.
	reader.Lookup(4900)
	reader.Metrics().BeginOp()
	reader.Lookup(4901)
	if rt := reader.Metrics().OpRoundTrips; rt > 6 {
		t.Errorf("post-flush lookup took %d round trips; stale steering persists", rt)
	}
}
