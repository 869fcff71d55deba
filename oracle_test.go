package sherman

import (
	"fmt"
	"sync"
	"testing"

	"sherman/internal/testutil"
)

// This file is the model-based differential oracle: random mixed operation
// streams — puts, gets, deletes, scans, submitted singly and in Exec
// batches at pipeline depths 1–8 — run against the tree while being
// replayed into testutil.Model, the obviously-correct in-memory map. Every
// result must match the model's, at every grid cell, and (in the
// migrating variant) while the elasticity engine concurrently adds,
// rebalances onto, and drains memory servers under the stream. Every
// oracle but the migrating one runs on both fabrics (testutil.Fabrics).

// oracleStream drives one session against the model for n steps.
func oracleStream(t *testing.T, s testSession, model *testutil.Model, rng interface {
	Uint64N(uint64) uint64
	Uint64() uint64
}, keySpace uint64, n int) {
	t.Helper()
	type pending struct {
		op   Op
		f    *Future
		want Result
	}
	var inflight []pending
	settle := func() {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, p := range inflight {
			got := p.f.Wait()
			if got.Err != nil {
				t.Fatalf("op %+v errored: %v", p.op, got.Err)
			}
			if got.Found != p.want.Found || got.Value != p.want.Value {
				t.Fatalf("op %+v = (%d,%v), model (%d,%v)", p.op, got.Value, got.Found, p.want.Value, p.want.Found)
			}
			if len(got.KVs) != len(p.want.KVs) {
				t.Fatalf("scan %+v returned %d rows, model %d", p.op, len(got.KVs), len(p.want.KVs))
			}
			for j := range p.want.KVs {
				if got.KVs[j] != p.want.KVs[j] {
					t.Fatalf("scan %+v row %d = %+v, model %+v", p.op, j, got.KVs[j], p.want.KVs[j])
				}
			}
		}
		inflight = inflight[:0]
	}
	modelApply := func(op Op) Result {
		var want Result
		switch op.Kind {
		case OpPut:
			model.Put(op.Key, op.Value)
		case OpDelete:
			want.Found = model.Delete(op.Key)
		case OpScan:
			want.KVs = model.Scan(op.Key, op.Span)
		default:
			want.Value, want.Found = model.Get(op.Key)
		}
		return want
	}
	randOp := func() Op {
		k := rng.Uint64N(keySpace) + 1
		switch rng.Uint64N(10) {
		case 0, 1, 2, 3:
			return PutOp(k, rng.Uint64()|1)
		case 4:
			return DeleteOp(rng.Uint64N(keySpace*2) + 1) // half absent
		case 5:
			return ScanOp(k, int(rng.Uint64N(12))+1)
		default:
			return GetOp(k)
		}
	}
	for i := 0; i < n; i++ {
		if rng.Uint64N(6) == 0 {
			// One mixed Exec batch; results are plain values.
			settle()
			ops := make([]Op, rng.Uint64N(30)+1)
			for j := range ops {
				ops[j] = randOp()
			}
			got := s.Exec(ops)
			for j, op := range ops {
				want := modelApply(op)
				g := got[j]
				if g.Err != nil || g.Found != want.Found || g.Value != want.Value || len(g.KVs) != len(want.KVs) {
					t.Fatalf("Exec op %d (%+v) = %+v, model %+v", j, op, g, want)
				}
				for r := range want.KVs {
					if g.KVs[r] != want.KVs[r] {
						t.Fatalf("Exec op %d scan row %d mismatch", j, r)
					}
				}
			}
			continue
		}
		op := randOp()
		// A scan's model answer must be computed when the pipeline is
		// drained up to it; the executor orders scans after outstanding
		// writes, so replaying the model at submit time is exact.
		want := modelApply(op)
		inflight = append(inflight, pending{op: op, f: s.Submit(op), want: want})
		if len(inflight) >= 64 {
			settle()
		}
	}
	settle()
}

// checkFinalState compares the whole tree against the model, key by key.
func checkFinalState(t *testing.T, s testSession, model *testutil.Model, keySpace uint64) {
	t.Helper()
	for k := uint64(1); k <= 2*keySpace; k++ {
		wv, wok := model.Get(k)
		gv, gok := s.Get(k)
		if wok != gok || (wok && wv != gv) {
			t.Fatalf("final key %d = (%d,%v), model (%d,%v)", k, gv, gok, wv, wok)
		}
	}
}

// TestDifferentialOracle runs the oracle per grid cell at every pipeline
// depth 1–8 (one depth per seed) on both fabrics, with no migrations — the
// baseline the migrating variant strengthens. Afterwards every memory
// server's inbound load must be visible (the Stats opcode over TCP).
func TestDifferentialOracle(t *testing.T) {
	depths := []int{1, 2, 4, 8}
	for _, opts := range gridOptions() {
		opts := opts
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 4, func(t *testing.T, seed uint64) {
				testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
					rng := testutil.RNG(seed)
					depth := depths[(seed-1)%uint64(len(depths))]
					c, _ := fabricCluster(t, fab, 2, 1, 0)
					s := openSession(t, testTree(t, c, opts), 0, PipelineDepth(depth))
					model := testutil.NewModel()
					const keySpace = 400
					oracleStream(t, s, model, rng, keySpace, 500)
					checkFinalState(t, s, model, keySpace)

					loads := c.MemoryServerLoads()
					var inbound int64
					for _, l := range loads {
						inbound += l.InboundOps
					}
					if len(loads) != 2 || inbound == 0 || LoadSkew(loads) < 1 {
						t.Fatalf("MemoryServerLoads = %+v (skew %v): want 2 servers, inbound ops, skew >= 1", loads, LoadSkew(loads))
					}
				})
			})
		})
	}
}

// TestDifferentialOraclePoison re-runs the baseline oracle once per grid
// cell and fabric with TreeOptions.Poison set: every recycled hot-path
// buffer — the per-session arena, the pooled write-op slices, the lock
// waiters — is filled with 0xDB the moment its lifetime ends, so an
// operation that reads scratch past its release returns poisoned garbage
// and fails the model comparison deterministically. Under -race (the CI
// configuration) this run doubles as the reuse-after-release detector of
// the zero-allocation recycling.
func TestDifferentialOraclePoison(t *testing.T) {
	depths := []int{1, 2, 4, 8}
	for i, opts := range gridOptions() {
		opts := opts
		opts.Poison = true
		depth := depths[i%len(depths)]
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
				rng := testutil.RNG(uint64(i) + 101)
				c, _ := fabricCluster(t, fab, 2, 1, 0)
				s := openSession(t, testTree(t, c, opts), 0, PipelineDepth(depth))
				model := testutil.NewModel()
				const keySpace = 400
				oracleStream(t, s, model, rng, keySpace, 500)
				checkFinalState(t, s, model, keySpace)
			})
		})
	}
}

// TestDifferentialOracleTinyCache is the cache-staleness oracle: the same
// random streams (depths 1–8) run with a deliberately tiny 2-entry index
// cache, so eviction churn is constant and nearly every speculative
// leaf-direct read races the stream's own splits — while a writer session
// on the other compute server forces extra splits, and (for odd seeds) the
// elasticity engine concurrently rebalances, onto a newly added memory
// server on the simulator (admitting one is sim-only). Every speculative
// read must either validate or fall back through the poisoned-path
// invalidation without ever returning a stale value: any miss shows up as
// a model mismatch. Over TCP the rebalancing seeds are also the check that
// Rebalance leaves a tree that validates (testTree).
func TestDifferentialOracleTinyCache(t *testing.T) {
	depths := []int{1, 2, 4, 8}
	for _, opts := range gridOptions() {
		opts := opts
		// A 2-entry budget: two compact copies of this tree's bulkloaded
		// level-1 nodes (78 B each, 182 B at full width) fit, three do not.
		opts.CacheBytes = 220
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 4, func(t *testing.T, seed uint64) {
				testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
					rng := testutil.RNG(seed)
					depth := depths[(seed-1)%uint64(len(depths))]
					migrate := seed%2 == 1
					c, _ := fabricCluster(t, fab, 2, 2, 0)
					tree := testTree(t, c, opts)
					s := openSession(t, tree, 0, PipelineDepth(depth))

					// A fence band of known keys separates the oracle keyspace
					// from the churn writer's stripe: scans running off the
					// oracle region land on fence rows (identical in tree and
					// model) instead of the writer's racing keys. The band is
					// wide enough to push the root past level 2, so level-1
					// entries are budgeted (evictable), not pinned — a 2-entry
					// cache then churns on every traversal.
					const keySpace = 400
					model := testutil.NewModel()
					fence := make([]KV, 3000)
					for i := range fence {
						k := uint64(2*keySpace + 1 + i)
						fence[i] = KV{Key: k, Value: testutil.BulkValue(k)}
						model.Put(k, fence[i].Value)
					}
					if err := tree.Bulkload(fence); err != nil {
						t.Fatal(err)
					}

					// Concurrent churn: a writer splitting leaves all over a
					// disjoint stripe, plus (odd seeds) rebalance cycles — the
					// two sources of cache staleness under live traffic.
					stop := make(chan struct{})
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						w := openSession(t, tree, 1)
						churnRng := testutil.RNG(seed + 1000)
						added := fab.Name != "sim"
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							for j := 0; j < 50; j++ {
								w.Put(1_000_000+churnRng.Uint64N(5000)+1, churnRng.Uint64()|1)
							}
							if !migrate {
								continue
							}
							if !added {
								if _, err := c.AddMemoryServer(); err != nil {
									t.Error(err)
									return
								}
								added = true
							}
							if _, err := tree.Rebalance(1); err != nil {
								t.Error(err)
								return
							}
						}
					}()

					oracleStream(t, s, model, rng, keySpace, 600)
					close(stop)
					wg.Wait()
					if t.Failed() {
						t.FailNow()
					}
					checkFinalState(t, s, model, keySpace)
					st := s.Stats()
					if st.SpeculativeReads == 0 {
						t.Error("tiny-cache stream issued no speculative reads")
					}
					if st.CacheEvictions == 0 {
						t.Error("2-entry cache saw no evictions")
					}
				})
			})
		})
	}
}

// runFailoverOracle drives one oracle stream on compute server 0 while a
// churn goroutine on compute server 1 kills memory servers and re-replicates
// back to full redundancy. On the simulator it kills three servers in turn
// (1, 2, 3), adding a replacement after each; admitting a server is
// sim-only, so over TCP it kills one of four (1, 2 or 3 by seed) and repairs
// onto the survivors. Every in-flight operation may therefore land
// mid-failover — its chunk re-keyed to a promoted replica between the
// validating read and the commit — and must still return exactly the
// model's answer.
//
// Over TCP the tree uses the default 1 KiB nodes: repair copies a chunk
// slot by slot, each slot a locked read over the socket whether it was
// carved or not (ROADMAP item 16(a)), and an 8 MB chunk of 256-byte slots
// costs about 1.4 s of it where 1 KiB slots cost a quarter of that.
func runFailoverOracle(t *testing.T, fab testutil.Fabric, opts TreeOptions, seed uint64, depth int) {
	rng := testutil.RNG(seed)
	numMS, victims := 3, []int{1, 2, 3}
	if fab.Name != "sim" {
		numMS, victims = 4, []int{int(seed%3) + 1}
		opts.NodeSize = 0
	}
	c, kill := fabricCluster(t, fab, numMS, 2, 2)
	tree := testTree(t, c, opts)
	s := openSession(t, tree, 0, PipelineDepth(depth))

	// A bulkloaded band above the oracle keyspace stripes primary chunks
	// across every memory server (the bulk allocator round-robins chunk
	// placement), so each victim hosts data whose failover must actually
	// promote replicas — a bare CreateTree could leave the victims empty.
	// The band is in the model, so scans running off the oracle region
	// still compare exactly.
	const keySpace = 400
	model := testutil.NewModel()
	band := make([]KV, 3000)
	for i := range band {
		k := uint64(2*keySpace + 1 + i)
		band[i] = KV{Key: k, Value: testutil.BulkValue(k)}
		model.Put(k, band[i].Value)
	}
	if err := tree.Bulkload(band); err != nil {
		t.Fatal(err)
	}

	reReplicateAll := func() error {
		for i := 0; i < 64; i++ {
			if _, err := tree.ReReplicate(1); err != nil {
				return err
			}
			if c.ReplicationStats().UnderReplicated == 0 {
				return nil
			}
		}
		return fmt.Errorf("re-replication never drained: %d chunks still under-replicated",
			c.ReplicationStats().UnderReplicated)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Kill, replace (sim), repair to full redundancy, repeat. The first
		// cycle runs unconditionally so every run exercises at least one
		// failover; MS 0 (superblock) is never a victim, and each kill is
		// fully repaired before the next, so no chunk ever loses its last
		// copy.
		for _, victim := range victims {
			if err := kill(victim); err != nil {
				t.Error(err)
				return
			}
			if fab.Name == "sim" {
				if _, err := c.AddMemoryServer(); err != nil {
					t.Error(err)
					return
				}
			}
			if err := reReplicateAll(); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	oracleStream(t, s, model, rng, keySpace, 600)
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	checkFinalState(t, s, model, keySpace)
	if err := tree.Validate(); err != nil {
		t.Fatalf("validate after failovers: %v", err)
	}
	st := c.ReplicationStats()
	if st.LostChunks != 0 {
		t.Fatalf("%d chunks lost every copy", st.LostChunks)
	}
	if st.Failovers < 1 {
		t.Fatal("no failover ever fired")
	}
	if st.UnderReplicated != 0 {
		t.Fatalf("%d chunks left under-replicated", st.UnderReplicated)
	}
}

// TestDifferentialOracleUnderFailover is the replicated differential oracle:
// random mixed streams at factor 2, on both fabrics, while memory servers
// die and re-replicate underneath — the model must agree on every result,
// the final state must match key by key, and no chunk may ever lose both
// copies.
func TestDifferentialOracleUnderFailover(t *testing.T) {
	for _, opts := range gridOptions() {
		opts := opts
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 3, func(t *testing.T, seed uint64) {
				testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
					runFailoverOracle(t, fab, opts, seed, []int{1, 4, 8}[(seed-1)%3])
				})
			})
		})
	}
}

// TestDifferentialOracleUnderFailoverPoison re-runs the failover oracle once
// per grid cell and fabric with buffer poisoning on, so a mirror or redo
// path holding a recycled buffer past its release fails the model
// comparison deterministically (and the -race CI run doubles as the reuse
// detector).
func TestDifferentialOracleUnderFailoverPoison(t *testing.T) {
	for i, opts := range gridOptions() {
		opts := opts
		opts.Poison = true
		i := i
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
				runFailoverOracle(t, fab, opts, uint64(i)+201, []int{1, 4, 8}[i%3])
			})
		})
	}
}

// TestDifferentialOracleUnderMigration is the elastic differential oracle:
// the same streams run while a migration goroutine adds memory servers,
// rebalances onto them, and drains old ones — so every operation may land
// mid-chunk-migration and resolve through forwarding. The model must still
// agree on every single result. It runs on the simulator only: its cycle
// starts by admitting a memory server, which TCP does not do yet
// (AddMemoryServer is ErrSimOnly; ROADMAP item 12).
func TestDifferentialOracleUnderMigration(t *testing.T) {
	for _, opts := range gridOptions() {
		opts := opts
		t.Run(opts.Advanced.name(), func(t *testing.T) {
			testutil.RunSeeds(t, 3, func(t *testing.T, seed uint64) {
				rng := testutil.RNG(seed)
				depth := []int{1, 4, 8}[(seed-1)%3]
				c, err := NewCluster(ClusterConfig{
					MemoryServers: 2, ComputeServers: 2, MaxMemoryServers: 6,
				})
				if err != nil {
					t.Fatal(err)
				}
				tree := testTree(t, c, opts)
				s := openSession(t, tree, 0, PipelineDepth(depth))

				stop := make(chan struct{})
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Scale out, rebalance, scale in, repeatedly, until the
					// stream finishes. Driven from the other compute server.
					drained := 0
					for added := 2; ; added++ {
						select {
						case <-stop:
							return
						default:
						}
						if added < 6 {
							if _, err := c.AddMemoryServer(); err != nil {
								t.Error(err)
								return
							}
						}
						if _, err := tree.Rebalance(1); err != nil {
							t.Error(err)
							return
						}
						select {
						case <-stop:
							return
						default:
						}
						if drained < 3 {
							if _, err := c.DrainMemoryServer(drained, 1); err != nil {
								t.Error(err)
								return
							}
							drained++
						}
					}
				}()

				model := testutil.NewModel()
				const keySpace = 400
				oracleStream(t, s, model, rng, keySpace, 700)
				close(stop)
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
				checkFinalState(t, s, model, keySpace)
				// The stream's data survived every migration; Validate runs
				// once more in the testTree cleanup.
				if err := tree.Validate(); err != nil {
					t.Fatalf("validate after migrations: %v", err)
				}
			})
		})
	}
}
