package core_test

import (
	"fmt"
	"testing"

	"sherman/internal/cluster"
	core "sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/replica"
	"sherman/internal/testutil"
)

// msKillScenario is one scripted operation run to completion while a memory
// server dies at every one of its fabric verbs in turn. Unlike a
// compute-server crash, the operating client survives: the op must complete,
// its effect and every previously acknowledged write must remain readable
// through the failed-over replicas, and the tree must stay Validate-clean.
type msKillScenario struct {
	name string
	// op mutates (or scans) through h and checks its own result.
	op func(t *testing.T, h *core.Handle)
	// want maps the final expected state: key -> value after op, with
	// deleted keys removed.
	want func(load []uint64) map[uint64]uint64
}

func msKillScenarios() []msKillScenario {
	final := func(load []uint64, mutate func(m map[uint64]uint64)) func([]uint64) map[uint64]uint64 {
		return func(load []uint64) map[uint64]uint64 {
			m := make(map[uint64]uint64, len(load)+2)
			for _, k := range load {
				m[k] = faultVal(k)
			}
			m[faultPrefixKey] = faultPrefixVal
			if mutate != nil {
				mutate(m)
			}
			return m
		}
	}
	return []msKillScenario{
		{
			name: "put-inplace",
			op:   func(t *testing.T, h *core.Handle) { h.Insert(120, 0xbeef) },
			want: final(nil, func(m map[uint64]uint64) { m[120] = 0xbeef }),
		},
		{
			name: "delete-inplace",
			op: func(t *testing.T, h *core.Handle) {
				if !h.Delete(120) {
					t.Fatal("delete reported key 120 absent")
				}
			},
			want: final(nil, func(m map[uint64]uint64) { delete(m, 120) }),
		},
		{
			name: "insert-split",
			op:   func(t *testing.T, h *core.Handle) { h.Insert(121, 0xcafe) },
			want: final(nil, func(m map[uint64]uint64) { m[121] = 0xcafe }),
		},
		{
			name: "scan",
			op: func(t *testing.T, h *core.Handle) {
				kvs := h.Range(1, 200)
				seen := make(map[uint64]uint64, len(kvs))
				for _, kv := range kvs {
					seen[kv.Key] = kv.Value
				}
				// The scan ran concurrently with nothing: it must return
				// exactly the acked contents, dead server or not.
				if len(seen) != 121 { // 120 bulk keys + prefix key
					t.Fatalf("scan returned %d distinct keys, want 121", len(seen))
				}
				for k, v := range seen {
					want := faultVal(k)
					if k == faultPrefixKey {
						want = faultPrefixVal
					}
					if v != want {
						t.Fatalf("scan key %d = %#x, want %#x", k, v, want)
					}
				}
			},
			want: final(nil, nil),
		},
	}
}

// buildMSKillTree builds a 3-MS cluster replicated at factor 2 and bulkloads
// the shared 120-key data set (BulkFill 1.0, so the split scenario splits).
func buildMSKillTree(cfg core.Config) (*cluster.Cluster, *core.Tree, []uint64) {
	cl := cluster.New(cluster.Config{NumMS: 3, NumCS: 2, ReplicationFactor: 2})
	c := cfg
	c.BulkFill = 1.0
	tr := core.New(cl, c)
	load := make([]uint64, 120)
	for i := range load {
		load[i] = uint64(2 * (i + 1))
	}
	kvs := make([]layout.KV, len(load))
	for i, k := range load {
		kvs[i] = layout.KV{Key: k, Value: faultVal(k)}
	}
	tr.Bulkload(kvs)
	return cl, tr, load
}

// TestMSKillAtEveryVerb is the replication property test: for every scripted
// operation, every layout x combine configuration, every killable memory
// server, and every fabric-verb index of the operation, the server's death
// injected at that verb must be survivable with zero lost acked writes — the
// operation completes on the live compute server, every bulkloaded and
// prefix write stays readable through the promoted replicas, Validate
// passes, and a re-replication sweep restores full redundancy. It stays on
// the simulator for its cost: it rebuilds the cluster and re-replicates at
// every kill point (ROADMAP item 16); TestKillAfterValidatingRead places
// the same kind of death on both fabrics at the one verb that matters most.
func TestMSKillAtEveryVerb(t *testing.T) {
	for _, cfg := range faultConfigs() {
		for _, sc := range msKillScenarios() {
			t.Run(faultCfgName(cfg)+"/"+sc.name, func(t *testing.T) {
				// Dry run: count the operation's fabric verbs (replication
				// changes the count, so count with it enabled).
				cl, tr, load := buildMSKillTree(cfg)
				h := tr.NewHandle(1, 1)
				h.Insert(faultPrefixKey, faultPrefixVal)
				v0 := cl.Faults().Verbs(1)
				sc.op(t, h)
				verbs := int(cl.Faults().Verbs(1) - v0)
				if verbs < 1 { // a cache-warm scan needs just one ReadMulti
					t.Fatalf("implausible verb count %d", verbs)
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("dry run left invalid tree: %v", err)
				}

				for victim := 1; victim <= 2; victim++ {
					for i := 1; i <= verbs; i++ {
						cl, tr, load = buildMSKillTree(cfg)
						h = tr.NewHandle(1, 1)
						h.Insert(faultPrefixKey, faultPrefixVal)
						cl.Faults().KillMSAtCSVerb(victim, 1, int64(i))
						sc.op(t, h) // must complete: only a memory server died

						tag := fmt.Sprintf("ms%d/verb %d/%d", victim, i, verbs)
						if cl.MSAlive(victim) {
							t.Fatalf("%s: armed kill never fired", tag)
						}
						if cl.Rep.Lost() != 0 {
							t.Fatalf("%s: %d chunks lost outright", tag, cl.Rep.Lost())
						}
						if err := tr.Validate(); err != nil {
							t.Fatalf("%s: validate: %v", tag, err)
						}
						checkMSKillState(t, tag, cl, tr, sc.want(load))

						// A repair sweep from the surviving CS restores full
						// redundancy; the tree stays intact throughout.
						rh := tr.NewHandle(0, 2)
						rh.SetClock(cl.Faults().LatestVerbV())
						st, err := replica.New(rh, replica.Options{MaxChunks: 1 << 20}).ReReplicate()
						if err != nil {
							t.Fatalf("%s: re-replicate: %v", tag, err)
						}
						if n := len(cl.Rep.UnderReplicated(2)); n != 0 {
							t.Fatalf("%s: %d chunks still under-replicated after sweep (%+v)", tag, n, st)
						}
						if err := tr.Validate(); err != nil {
							t.Fatalf("%s: post-repair validate: %v", tag, err)
						}
						checkMSKillState(t, tag+"/repaired", cl, tr, sc.want(load))
					}
				}
			})
		}
	}
}

// checkMSKillState verifies the tree's readable contents match want exactly,
// via point lookups from a fresh handle on the surviving compute server.
func checkMSKillState(t *testing.T, tag string, cl *cluster.Cluster, tr *core.Tree, want map[uint64]uint64) {
	t.Helper()
	h := tr.NewHandle(0, 99)
	h.SetClock(cl.Faults().LatestVerbV())
	for k, wantV := range want {
		if got, ok := h.Lookup(k); !ok || got != wantV {
			t.Fatalf("%s: key %d = (%#x,%v), want (%#x,true)", tag, k, got, ok, wantV)
		}
	}
	// Deleted keys must stay deleted (the delete scenario removes 120).
	if _, present := want[120]; !present {
		if got, ok := h.Lookup(120); ok {
			t.Fatalf("%s: deleted key 120 resurrected as %#x", tag, got)
		}
	}
}

// TestMSKillTriggerOverTCP arms the injector's memory-server trigger over
// TCP: the put's first verb declares the death of its leaf's server. The
// death is the client's declaration, as for a missed heartbeat: failover
// promotes the replicas and the server's connection fails, while the
// in-process server itself stays up. The put must ack, read back through
// the promoted replica with every bulkloaded key intact, and the tree must
// validate.
func TestMSKillTriggerOverTCP(t *testing.T) {
	const key, first, second = 82, 0xbeef, 0xcafe
	load := make([]layout.KV, 120)
	for i := range load {
		k := uint64(2 * (i + 1))
		load[i] = layout.KV{Key: k, Value: faultVal(k)}
	}
	cfg := testutil.Configs()[0]
	cfg.BulkFill = 0.5 // 4 level-1 nodes: the key's leaves are not on MS 0
	cfg.LocksPerMS = 1024
	inner, _ := testutil.TCP.New(t, 3, 2, 2)
	// A put's first read is its leaf's: record that server rather than kill it.
	leafMS := 0
	k := &testutil.KillAfter{Kill: func(ms int) error { leafMS = ms; return nil }}
	be := testutil.Tap(t, inner, k.Hook)
	tr := core.New(be, cfg)
	tr.Bulkload(load)
	h := tr.NewHandle(1, 1)
	h.Lookup(key) // warm the cache: the put's first read is its leaf's
	k.Arm(testutil.VerbRead|testutil.VerbCASRead, 1)
	h.Insert(key, first)
	if leafMS == 0 {
		t.Fatalf("key %d's leaf is on MS 0, which cannot be killed", key)
	}

	testutil.Faults(inner).KillMSAtCSVerb(leafMS, 1, 1)
	h.Insert(key, second)
	if be.MSAlive(leafMS) {
		t.Fatal("armed kill never fired")
	}
	if be.Forwarding().Len() == 0 || be.Replicas().Lost() != 0 {
		t.Fatalf("failover: %d forwarding entries, %d chunks lost", be.Forwarding().Len(), be.Replicas().Lost())
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	vh := tr.NewHandle(0, 99)
	for _, kv := range load {
		want := kv.Value
		if kv.Key == key {
			want = second
		}
		if got, ok := vh.Lookup(kv.Key); !ok || got != want {
			t.Fatalf("killed MS %d: key %d = (%#x,%v), want (%#x,true)", leafMS, kv.Key, got, ok, want)
		}
	}
}
