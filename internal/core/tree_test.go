package core_test

import (
	"math/rand/v2"
	"sync"
	"testing"

	core "sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/testutil"
)

func TestEmptyTreeLookup(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 1)
		tr := core.New(cl, cfg)
		h := tr.NewHandle(0, 0)
		if _, ok := h.Lookup(42); ok {
			t.Errorf("%s: lookup on empty tree found a value", cfg.Name())
		}
	}
}

func TestInsertLookupSingleThread(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 1)
		tr := core.New(cl, cfg)
		h := tr.NewHandle(0, 0)

		const n = 5000
		rng := rand.New(rand.NewPCG(1, 2))
		oracle := make(map[uint64]uint64)
		for i := 0; i < n; i++ {
			k := rng.Uint64N(3*n) + 1
			v := rng.Uint64() | 1
			h.Insert(k, v)
			oracle[k] = v
		}
		for k, v := range oracle {
			got, ok := h.Lookup(k)
			if !ok || got != v {
				t.Fatalf("%s: lookup(%d) = %d,%v want %d,true", cfg.Name(), k, got, ok, v)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", cfg.Name(), err)
		}
	}
}

func TestBulkloadAndLookup(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 4, 1)
		tr := core.New(cl, cfg)

		const n = 20000
		kvs := make([]layout.KV, n)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: uint64(i+1) * 7}
		}
		tr.Bulkload(kvs)
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate after bulkload: %v", cfg.Name(), err)
		}

		h := tr.NewHandle(0, 0)
		for _, probe := range []uint64{1, 2, n / 2, n - 1, n} {
			got, ok := h.Lookup(probe)
			if !ok || got != probe*7 {
				t.Fatalf("%s: lookup(%d) = %d,%v want %d,true", cfg.Name(), probe, got, ok, probe*7)
			}
		}
		if _, ok := h.Lookup(n + 100); ok {
			t.Fatalf("%s: found key beyond bulkloaded range", cfg.Name())
		}
	}
}

func TestDelete(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 1)
		tr := core.New(cl, cfg)
		h := tr.NewHandle(0, 0)

		for k := uint64(1); k <= 2000; k++ {
			h.Insert(k, k*3)
		}
		for k := uint64(2); k <= 2000; k += 2 {
			if !h.Delete(k) {
				t.Fatalf("%s: delete(%d) reported missing", cfg.Name(), k)
			}
		}
		if h.Delete(99999) {
			t.Fatalf("%s: delete of absent key reported found", cfg.Name())
		}
		for k := uint64(1); k <= 2000; k++ {
			v, ok := h.Lookup(k)
			if k%2 == 0 && ok {
				t.Fatalf("%s: deleted key %d still present", cfg.Name(), k)
			}
			if k%2 == 1 && (!ok || v != k*3) {
				t.Fatalf("%s: surviving key %d wrong: %d,%v", cfg.Name(), k, v, ok)
			}
		}
	}
}

func TestRangeQuery(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 1)
		tr := core.New(cl, cfg)
		const n = 10000
		kvs := make([]layout.KV, n)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i+1) * 2, Value: uint64(i + 1)}
		}
		tr.Bulkload(kvs)
		h := tr.NewHandle(0, 0)

		got := h.Range(1000, 500)
		if len(got) != 500 {
			t.Fatalf("%s: range returned %d results, want 500", cfg.Name(), len(got))
		}
		want := uint64(1000)
		for i, kv := range got {
			if kv.Key != want {
				t.Fatalf("%s: range[%d].Key = %d, want %d", cfg.Name(), i, kv.Key, want)
			}
			if kv.Value != want/2 {
				t.Fatalf("%s: range[%d].Value = %d, want %d", cfg.Name(), i, kv.Value, want/2)
			}
			want += 2
		}

		// Range off the right edge returns only what exists.
		tail := h.Range(uint64(n)*2-10, 100)
		if len(tail) != 6 {
			t.Fatalf("%s: tail range returned %d results, want 6", cfg.Name(), len(tail))
		}
	}
}

func TestConcurrentInsertLookup(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 4, 2)
		tr := core.New(cl, cfg)

		const threads = 8
		const perThread = 2000
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := tr.NewHandle(th%2, th)
				base := uint64(th) * 1_000_000
				for i := uint64(1); i <= perThread; i++ {
					h.Insert(base+i, base+i*2)
					if i%7 == 0 {
						if v, ok := h.Lookup(base + i); !ok || v != base+i*2 {
							t.Errorf("thread %d: lookup(%d) = %d,%v", th, base+i, v, ok)
							return
						}
					}
				}
			}(th)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("%s: concurrent failures", cfg.Name())
		}
		h := tr.NewHandle(0, 99)
		for th := 0; th < threads; th++ {
			base := uint64(th) * 1_000_000
			for i := uint64(1); i <= perThread; i += 97 {
				if v, ok := h.Lookup(base + i); !ok || v != base+i*2 {
					t.Fatalf("%s: post-hoc lookup(%d) = %d,%v", cfg.Name(), base+i, v, ok)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", cfg.Name(), err)
		}
	}
}

func TestConcurrentHotKeyContention(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		cl := testutil.NewCluster(t, 2, 2)
		tr := core.New(cl, cfg)
		// A handful of hot keys hammered by many threads: exercises lock
		// queueing, handover, and entry-version torn-read detection.
		const threads = 12
		const rounds = 1500
		var wg sync.WaitGroup
		for th := 0; th < threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				h := tr.NewHandle(th%2, th)
				rng := rand.New(rand.NewPCG(uint64(th), 99))
				for i := 0; i < rounds; i++ {
					k := rng.Uint64N(8) + 1
					if rng.Uint64N(2) == 0 {
						h.Insert(k, k*10000+uint64(i))
					} else if v, ok := h.Lookup(k); ok && v/10000 != k {
						// Every value ever written for k is k*10000+i with
						// i < rounds, so any other reading is a torn read.
						t.Errorf("torn value for key %d: %d", k, v)
						return
					}
				}
			}(th)
		}
		wg.Wait()
		if t.Failed() {
			t.Fatalf("%s: hot-key contention failures", cfg.Name())
		}
	}
}

// TestConcurrentAcquireDoorbellHotSlot aims two compute servers' writers at
// one leaf, so every write contends for one GLT slot, with the acquire
// doorbell on. Many CASes lose there: each billed spin among an
// acquisition's first hocl.DoorbellAttempts attempts is a lost doorbell
// whose READ must be billed on the fabric and its bytes never trusted, since
// they can predate the holder's write-back, and acquisitions won within
// those attempts carry the READ on the winning CAS. Each key is written by
// one thread, so that thread's model decides its final value; the tree
// must match every model and validate, and the memory server must have
// served exactly the commands the clients counted, wasted READs included.
func TestConcurrentAcquireDoorbellHotSlot(t *testing.T) {
	cfg := core.ShermanConfig()
	cfg.Format = layout.NewFormat(layout.TwoLevel, 8, 1024)
	const threads, keysPer, rounds = 4, 4, 1500
	if threads*keysPer > cfg.Format.LeafCap {
		t.Fatalf("%d keys overflow one %d-entry leaf", threads*keysPer, cfg.Format.LeafCap)
	}
	cl := testutil.NewCluster(t, 1, 2)
	tr := testutil.NewTree(t, cl, cfg)
	srv := cl.F.Servers()[0]
	served0 := srv.InboundOps()
	// Every client exists before any worker starts, so the simulator yields
	// on every verb from the first (rdma.Client.yield).
	hs := make([]*core.Handle, threads+1)
	for i := range hs {
		hs[i] = tr.NewHandle(i%2, i)
	}
	key := func(th, j int) uint64 { return uint64(j*threads + th + 1) } // interleaved: one leaf
	models := make([]*testutil.Model, threads)
	var wg sync.WaitGroup
	for th := range threads {
		models[th] = testutil.NewModel()
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, m, rng := hs[th], models[th], testutil.RNG(uint64(th)+1)
			for i := range rounds {
				k := key(th, rng.IntN(keysPer))
				if rng.IntN(4) == 0 {
					h.Delete(k)
					m.Delete(k)
				} else {
					v := uint64(i+1)<<8 | uint64(th)
					h.Insert(k, v)
					m.Put(k, v)
				}
				// A write that trusted stale bytes clobbers another
				// thread's entry; its owner sees the loss here before a
				// later write of its own could heal it.
				k = key(th, rng.IntN(keysPer))
				want, wantOK := m.Get(k)
				if got, ok := h.Lookup(k); ok != wantOK || got != want {
					t.Errorf("thread %d, round %d: key %d reads (%d, %v), model (%d, %v)", th, i, k, got, ok, want, wantOK)
					return
				}
			}
		}()
	}
	wg.Wait()
	check := hs[threads]
	for th, m := range models {
		for j := range keysPer {
			k := key(th, j)
			want, wantOK := m.Get(k)
			if got, ok := check.Lookup(k); ok != wantOK || got != want {
				t.Errorf("key %d: tree has (%d, %v), model (%d, %v)", k, got, ok, want, wantOK)
			}
		}
	}
	ls := tr.LockStats()
	carried, wasted, retries := ls.AcquireReads.Load(), ls.AcquireReadsWasted.Load(), ls.GlobalRetries.Load()
	if wasted == 0 || wasted > retries {
		t.Errorf("AcquireReadsWasted = %d, GlobalRetries = %d: the billed spins on a slot two compute servers hammer must carry wasted READs, at most one each", wasted, retries)
	}
	won, byCAS := carried-wasted, ls.Acquisitions.Load()-ls.Handovers.Load()-ls.Reclaims.Load()
	if won < byCAS-retries/hocl.DoorbellAttempts || won > byCAS {
		t.Errorf("AcquireReads − AcquireReadsWasted = %d of %d acquisitions won by a CAS after %d retries: all but those with %d lost attempts must carry the READ on the winning CAS",
			won, byCAS, retries, hocl.DoorbellAttempts)
	}
	var posted int64
	for _, h := range hs {
		m := h.Metrics()
		posted += m.Reads + m.Writes + m.Atomics + m.RPCs
	}
	if served := srv.InboundOps() - served0; served != posted {
		t.Errorf("memory server served %d commands, clients posted %d", served, posted)
	}
}
