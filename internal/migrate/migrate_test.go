package migrate_test

import (
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/migrate"
	"sherman/internal/sim"
	"sherman/internal/stats"
	"sherman/internal/testutil"
)

// buildMigrTree builds a deterministic 2-MS cluster whose tree stripes
// across both servers, so draining ms1 is a real multi-node migration.
func buildMigrTree(t *testing.T, cfg core.Config, keys int) (*cluster.Cluster, *core.Tree) {
	t.Helper()
	cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 2, MaxMS: 4})
	tr := core.New(cl, cfg)
	testutil.Bulk(t, tr, keys)
	return cl, tr
}

// checkExactContents asserts every bulkloaded key is reachable exactly
// once: a full scan must return each key one time in order (a duplicated
// parent edge would surface as a repeated key), and the structural stats
// must count exactly the loaded entries.
func checkExactContents(t *testing.T, tr *core.Tree, keys int, when string) {
	t.Helper()
	h := tr.NewHandle(0, 99)
	rows := h.Range(1, keys+16)
	if len(rows) != keys {
		t.Fatalf("%s: scan returned %d rows, want %d", when, len(rows), keys)
	}
	for i, kv := range rows {
		want := uint64(i + 1)
		if kv.Key != want || kv.Value != testutil.BulkValue(want) {
			t.Fatalf("%s: row %d = %+v, want key %d", when, i, kv, want)
		}
	}
	if st := tr.Stats(); st.Entries != keys {
		t.Fatalf("%s: tree holds %d entries, want %d", when, st.Entries, keys)
	}
}

// runCrashing runs fn, reporting whether it aborted with a compute-server
// crash.
func runCrashing(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := sim.IsCrash(r); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// TestMigrationCrashAtEveryVerb is the crash property test of the
// migration protocol: a compute server driving a drain of memory server 1
// is killed at every fabric-verb index of the migration in turn. After
// each crash a survivor runs the structural recovery sweep, and the tree
// must hold every key exactly once, pass Validate, and have drained the
// dead migrator's forwarding entries.
func TestMigrationCrashAtEveryVerb(t *testing.T) {
	const keys = 90
	for _, cfg := range testutil.Configs() {
		t.Run(cfg.Name(), func(t *testing.T) {
			// Dry run: count the migration's fabric verbs.
			cl, tr := buildMigrTree(t, cfg, keys)
			victim := tr.NewHandle(1, 1)
			v0 := cl.Faults().Verbs(1)
			if _, err := migrate.New(victim, migrate.Options{}).DrainServer(1); err != nil {
				t.Fatal(err)
			}
			verbs := int(cl.Faults().Verbs(1) - v0)
			if verbs < 10 {
				t.Fatalf("implausible migration verb count %d", verbs)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("dry run left invalid tree: %v", err)
			}
			checkExactContents(t, tr, keys, "dry run")
			t.Logf("%s: migration spans %d verbs", cfg.Name(), verbs)

			step := 1
			if testing.Short() {
				step = 7
			}
			for i := 1; i <= verbs; i += step {
				cl, tr = buildMigrTree(t, cfg, keys)
				victim = tr.NewHandle(1, 1)
				cl.Faults().KillAtVerb(1, int64(i))
				if !runCrashing(func() {
					_, err := migrate.New(victim, migrate.Options{}).DrainServer(1)
					if err != nil {
						t.Errorf("verb %d: drain error instead of crash: %v", i, err)
					}
				}) {
					t.Fatalf("verb %d/%d: migrator survived its armed kill", i, verbs)
				}

				// Before recovery the tree must already serve every key —
				// forwarding keeps killed nodes reachable in one hop.
				surv := tr.NewHandle(0, 2)
				surv.SetClock(victim.C.Now())
				for k := uint64(1); k <= keys; k += 13 {
					if v, ok := surv.Lookup(k); !ok || v != testutil.BulkValue(k) {
						t.Fatalf("verb %d: pre-recovery Lookup(%d) = (%d,%v)", i, k, v, ok)
					}
				}

				repairs, complete := surv.RecoverStructure()
				if !complete {
					t.Fatalf("verb %d: recovery pass budget exhausted (%d repairs)", i, repairs)
				}
				if drained := tr.DrainDeadForwarding(); cl.Fwd.Len() != 0 {
					t.Fatalf("verb %d: %d forwarding entries linger after draining %d",
						i, cl.Fwd.Len(), drained)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("verb %d/%d: post-recovery validate: %v", i, verbs, err)
				}
				checkExactContents(t, tr, keys, "post-recovery")
			}
		})
	}
}

// decorated wraps a Backend the way a tracing or fault-injecting layer
// does: by embedding core.Backend and overriding nothing migration uses.
type decorated struct{ core.Backend }

// TestMigrationOverDecoratedBackend drains a server of a tree built over a
// decorated simulator Backend, once to completion and once with the
// migrator killed halfway: the engine and Tree.DrainDeadForwarding reach
// the deployment through the Backend interface alone, so the wrapper hides
// nothing — the dead migrator's forwarding entries drain after recovery.
func TestMigrationOverDecoratedBackend(t *testing.T) {
	const keys = 90
	cfg := testutil.Configs()[0]
	build := func() (*cluster.Cluster, *core.Tree, *core.Handle) {
		cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 2})
		tr := core.New(decorated{cl}, cfg)
		testutil.Bulk(t, tr, keys)
		return cl, tr, tr.NewHandle(1, 1)
	}

	cl, tr, h := build()
	v0 := cl.Faults().Verbs(1)
	if st, err := migrate.New(h, migrate.Options{}).DrainServer(1); err != nil || st.NodesMoved == 0 {
		t.Fatalf("drain = %+v, %v; want nodes moved", st, err)
	}
	if !cl.Loads()[1].Draining {
		t.Fatal("drained server not marked draining")
	}
	checkExactContents(t, tr, keys, "drained")

	verbs := cl.Faults().Verbs(1) - v0
	cl, tr, h = build()
	cl.Faults().KillAtVerb(1, verbs/2)
	if !runCrashing(func() { migrate.New(h, migrate.Options{}).DrainServer(1) }) {
		t.Fatal("migrator survived its armed kill")
	}
	if cl.Fwd.Len() == 0 {
		t.Fatal("no forwarding entry installed by the halfway kill; the scenario is vacuous")
	}
	surv := tr.NewHandle(0, 2)
	surv.SetClock(h.C.Now())
	if _, complete := surv.RecoverStructure(); !complete {
		t.Fatal("recovery pass budget exhausted")
	}
	if n := tr.DrainDeadForwarding(); n == 0 || cl.Fwd.Len() != 0 {
		t.Fatalf("DrainDeadForwarding = %d, %d entries left; want every dead migrator's entry drained", n, cl.Fwd.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	checkExactContents(t, tr, keys, "recovered")
}

// TestDrainThenOperate drains a server and keeps writing through it: the
// drained server must take no new data while every existing key stays
// reachable, and a second drain of the (already empty) server is a no-op.
func TestDrainThenOperate(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		t.Run(cfg.Name(), func(t *testing.T) {
			cl, tr := buildMigrTree(t, cfg, 500)
			h := tr.NewHandle(0, 0)
			e := migrate.New(h, migrate.Options{})
			st, err := e.DrainServer(1)
			if err != nil {
				t.Fatal(err)
			}
			if st.NodesMoved == 0 || st.ChunksMoved == 0 {
				t.Fatalf("drain moved nothing: %+v", st)
			}
			if st.Repoints == 0 {
				t.Fatalf("drain repointed nothing: %+v", st)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			// No tree node lives on ms1 anymore.
			srv := cl.F.Servers()[1]
			for ci := range srv.ChunkOps() {
				if items := h.CollectChunk(alloc.ChunkID{MS: 1, Index: uint64(ci)}); len(items) != 0 {
					t.Fatalf("chunk %d still holds %d reachable nodes", ci, len(items))
				}
			}
			// Growth keeps working and lands elsewhere.
			for k := uint64(10_000); k < 11_500; k++ {
				h.Insert(k, k)
			}
			if _, err := e.DrainServer(1); err != nil {
				t.Fatalf("re-drain of empty server: %v", err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlanRebalanceTargetsColdServer checks the picker end to end: a tree
// big enough to span several chunks sits entirely on one server; after a
// second (idle) server joins, Rebalance must move hot chunks onto it until
// fresh traffic splits across both. Chunk granularity bounds how finely
// load can split, so the assertion is a band, not perfection.
func TestPlanRebalanceTargetsColdServer(t *testing.T) {
	const keys = 800_000 // ~3 chunks of 256 B nodes
	cl := cluster.New(cluster.Config{NumMS: 1, NumCS: 1, MaxMS: 2})
	cfg := testutil.Configs()[0]
	tr := core.New(cl, cfg)
	testutil.Bulk(t, tr, keys)
	h := tr.NewHandle(0, 0)
	for k := uint64(1); k <= keys; k += 17 {
		h.Lookup(k)
	}
	if _, err := cl.F.AddServer(); err != nil {
		t.Fatal(err)
	}
	before := cl.Loads()
	if skew := stats.LoadMaxMin(before); skew < 2 {
		t.Fatalf("pre-rebalance max/min skew %.1f, want large", skew)
	}
	st, err := migrate.New(h, migrate.Options{}).Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksMoved == 0 || st.NodesMoved == 0 {
		t.Fatalf("rebalance moved nothing: %+v", st)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fresh traffic must now split across both servers: the hottest one may
	// keep more (whole chunks move, load splits at chunk granularity), but
	// the cold server must carry a real share.
	prev := cl.Loads()
	h2 := tr.NewHandle(0, 1)
	for k := uint64(1); k <= keys; k += 13 {
		h2.Lookup(k)
	}
	window := stats.SubLoads(cl.Loads(), prev)
	if skew := stats.LoadMaxMin(window); skew > 4 {
		t.Fatalf("post-rebalance window max/min skew %.2f, want near 1 (loads %+v)", skew, window)
	}
}
