package core_test

import (
	"fmt"
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/testutil"
)

// TestKillAfterValidatingRead sweeps the bulkloaded keys of a 3-MS RF=2 tree
// of several level-1 nodes (every third: each leaf is hit at least twice,
// and a fresh deployment per key is what the test costs) through each way
// of running one write — the synchronous entry points and the pipelined
// executor at depth 1 and 4 — on both fabrics, killing the leaf's memory
// server between the write's validating read and its commit
// (testutil.KillAfter on the first read verb: the acquire doorbell, or the
// Read after a bare lock CAS with combining off). Mirror then finds the
// chunk re-keyed and raises the handle's redo flag. Whatever the write
// path and the fabric, the acked write must be durable through the
// promoted replica, no other acked write may be lost, the tree must
// validate, and the op must leave no redo flag behind for the next op to
// trip over. The @post cells arm the first post instead: a replicated
// write's mirror, posted before its primary commit (PostWritesAsync over
// TCP), so the death lands on the replica's server between the two.
func TestKillAfterValidatingRead(t *testing.T) {
	const newVal = 0xfeed
	const read = testutil.VerbRead | testutil.VerbCASRead
	insert := func(h *core.Handle, key uint64) bool { h.Insert(key, newVal); return true }
	async4 := func(h *core.Handle, key uint64) bool {
		a := h.NewAsync(4)
		defer a.Close()
		p := a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: key, Value: newVal})
		a.SubmitOp(core.Op{Kind: stats.OpLookup, Key: key + 1}) // keep the window busy behind it
		p.Wait()
		a.Flush()
		return true
	}
	drivers := []struct {
		name   string
		delete bool
		arm    testutil.Verb
		run    func(h *core.Handle, key uint64) (found bool)
	}{
		{"Insert", false, read, insert},
		{"Delete", true, read, func(h *core.Handle, key uint64) bool { return h.Delete(key) }},
		{"NewAsync(1)", false, read, func(h *core.Handle, key uint64) bool {
			a := h.NewAsync(1)
			defer a.Close()
			a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: key, Value: newVal}).Wait()
			return true
		}},
		{"NewAsync(4)", false, read, async4},
		{"Insert@post", false, testutil.VerbPost, insert},
		{"NewAsync(4)@post", false, testutil.VerbPost, async4},
	}
	load := make([]layout.KV, 120)
	for i := range load {
		k := uint64(2 * (i + 1))
		load[i] = layout.KV{Key: k, Value: k*7 + 1}
	}
	for _, cfg := range testutil.Configs() {
		// Half-full 256 B nodes pack the 120 keys into 20 leaves under 4
		// level-1 nodes. Bulkload places each level-1 node's leaves on one
		// server, rotating from MS 0, so the swept keys live on MS 0, 1, 2
		// and 0 in turn and most leaves have a server the sweep may kill.
		cfg.BulkFill = 0.5
		// Small lock-table rows: every deployment below allocates one per
		// server it locks on, and with default-size rows (a 3.7 MB slot row
		// per simulated server) the sweep runs measurably longer.
		cfg.LocksPerMS = 1024
		for _, d := range drivers {
			t.Run(cfg.Name()+"/"+d.name, func(t *testing.T) {
				testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
					fired, swept := 0, 0
					for i := 0; i < len(load); i += 3 {
						target := load[i]
						swept++
						// One subtest per key, so each deployment is torn
						// down before the next is built.
						t.Run(fmt.Sprintf("key=%d", target.Key), func(t *testing.T) {
							inner, kill := fab.New(t, 3, 2, 2)
							k := &testutil.KillAfter{Kill: kill}
							be := testutil.Tap(t, inner, k.Hook)
							tr := core.New(be, cfg)
							tr.Bulkload(load)
							h := tr.NewHandle(1, 1)
							h.Lookup(target.Key) // warm the cache: the write's first read is its leaf's

							k.Arm(d.arm, 1)
							found := d.run(h, target.Key)
							killed := 0
							for ms := 1; ms < 3; ms++ {
								if !be.MSAlive(ms) {
									killed = ms
								}
							}
							if killed == 0 {
								return // the leaf lives on MS 0
							}
							fired++
							if !found {
								t.Fatalf("delete reported a bulkloaded key absent")
							}
							if lost := be.Replicas().Lost(); lost != 0 {
								t.Fatalf("%d chunks lost outright", lost)
							}
							if err := tr.Validate(); err != nil {
								t.Fatalf("validate: %v", err)
							}
							vh := tr.NewHandle(0, 99)
							if cl, ok := inner.(*cluster.Cluster); ok {
								vh.SetClock(cl.Faults().LatestVerbV())
							}
							for _, kv := range load {
								want, wantOK := kv.Value, true
								if kv.Key == target.Key {
									want, wantOK = newVal, !d.delete
								}
								if got, ok := vh.Lookup(kv.Key); ok != wantOK || (ok && got != want) {
									t.Fatalf("killed MS %d: acked state lost: key %d = (%#x,%v), want (%#x,%v)",
										killed, kv.Key, got, ok, want, wantOK)
								}
							}
							if h.Redo() {
								t.Fatalf("op exited with the redo flag raised")
							}
						})
					}
					if fired < swept/3 {
						t.Fatalf("only %d of %d keys had their leaf's server killed", fired, swept)
					}
				})
			})
		}
	}
}

// TestFailoverSeesServerDead pins the order of a memory-server death on
// both fabrics: the dead flag is published before failover re-keys a
// single chunk. A mirror that finds its chunk re-keyed redoes the write
// only if it also finds the server dead, so a failover that ran ahead of
// the flag would let a pipelined runner ack a write that landed nowhere
// (TestKillAfterValidatingRead's NewAsync(4) cell over TCP). The hook
// records what MSAlive says each time failover invalidates a chunk.
func TestFailoverSeesServerDead(t *testing.T) {
	const victim = 1
	load := make([]layout.KV, 120)
	for i := range load {
		k := uint64(2 * (i + 1))
		load[i] = layout.KV{Key: k, Value: k*7 + 1}
	}
	cfg := testutil.Configs()[0]
	cfg.BulkFill = 0.5 // 4 level-1 nodes: MS 1 holds a run of leaves
	cfg.LocksPerMS = 1024
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		be, kill := fab.New(t, 3, 2, 2)
		tr := core.New(be, cfg)
		tr.Bulkload(load)
		var alive []bool // MSAlive(victim) at each promoted chunk
		be.OnChunkInvalidate(func(alloc.ChunkID) { alive = append(alive, be.MSAlive(victim)) })
		if err := kill(victim); err != nil {
			t.Fatal(err)
		}
		if len(alive) == 0 {
			t.Fatal("no chunk was promoted: the scenario is vacuous")
		}
		for i, a := range alive {
			if a {
				t.Fatalf("failover promoted chunk %d of %d while MS %d still read alive", i+1, len(alive), victim)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
	})
}
