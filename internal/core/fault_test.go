package core_test

import (
	"fmt"
	"testing"
	"time"

	core "sherman/internal/core"
	"sherman/internal/deploy"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/testutil"
	"sherman/internal/transport"
	"sherman/internal/transport/tap"
)

// faultConfigs is the TwoLevel/Checksum x Combine grid, covering both lock
// word formats (16-bit on-chip under Sherman locks, 64-bit host under the
// baseline) and both write-back shapes (combined doorbell vs separate
// signaled writes).
func faultConfigs() []core.Config {
	grid := []struct {
		mode    layout.Mode
		combine bool
		locks   hocl.Mode
	}{
		{layout.TwoLevel, true, hocl.Sherman()},
		{layout.TwoLevel, false, hocl.Sherman()},
		{layout.Checksum, true, hocl.Baseline()},
		{layout.Checksum, false, hocl.Baseline()},
	}
	var out []core.Config
	for _, g := range grid {
		out = append(out, core.Config{
			Format:     testutil.SmallFormat(g.mode),
			Combine:    g.combine,
			Locks:      g.locks,
			LocksPerMS: 1024, // small rows: each cluster below allocates, and each crash sweeps, a row per server locked on
		})
	}
	return out
}

func faultCfgName(cfg core.Config) string {
	return fmt.Sprintf("%v/combine=%v/onchip=%v", cfg.Format.Mode, cfg.Combine, cfg.Locks.OnChip)
}

// faultScenario is one scripted operation whose every fabric verb gets a
// crash injected in turn.
type faultScenario struct {
	name string
	// keys bulkloaded (BulkFill 1.0: every leaf exactly full); nil means
	// one exactly-full leaf (computed from the format's LeafCap), which
	// makes the split op grow a new root.
	load []uint64
	// prefix ops acknowledged before the crash op (must survive).
	prefix func(h *core.Handle)
	// op is the operation under crash injection; retried by the survivor.
	op func(h *core.Handle)
	// key/old/new describe the op's effect for the invisible-or-applied
	// check. deleted marks ops whose "new" state is absence.
	key      uint64
	old, new uint64
	deleted  bool
	present  bool // key exists before the op
}

// The prefix key is odd so it never collides with the (even) bulkloaded
// keys; inserting it is itself an acked pre-crash write.
const faultPrefixKey, faultPrefixVal = 31, 0xacced

func faultScenarios() []faultScenario {
	evens := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(2 * (i + 1))
		}
		return out
	}
	many := evens(120) // ~10 full leaves with 256 B nodes
	prefix := func(h *core.Handle) { h.Insert(faultPrefixKey, faultPrefixVal) }
	return []faultScenario{
		{
			name: "update-inplace", load: many, prefix: prefix,
			op:  func(h *core.Handle) { h.Insert(120, 0xbeef) },
			key: 120, old: faultVal(120), new: 0xbeef, present: true,
		},
		{
			name: "delete-inplace", load: many, prefix: prefix,
			op:  func(h *core.Handle) { h.Delete(120) },
			key: 120, old: faultVal(120), deleted: true, present: true,
		},
		{
			name: "insert-split", load: many, prefix: prefix,
			op:  func(h *core.Handle) { h.Insert(121, 0xcafe) },
			key: 121, new: 0xcafe,
		},
		{
			// A full single-leaf tree (load nil: sized to LeafCap): the
			// split grows a new root, covering the CASRoot path too.
			name: "root-split",
			op:   func(h *core.Handle) { h.Insert(13, 0xd00d) },
			key:  13, new: 0xd00d,
		},
	}
}

func faultVal(k uint64) uint64 { return k*7 + 1 }

// buildFaultTree builds a deterministic deployment and tree on fab for one
// scenario run, returning its fault injector and the bulkloaded keys.
func buildFaultTree(t *testing.T, fab testutil.Fabric, cfg core.Config, sc faultScenario) (*deploy.Faults, *core.Tree, []uint64) {
	be, _ := fab.New(t, 2, 2, 0)
	c := cfg
	c.BulkFill = 1.0
	tr := core.New(be, c)
	load := sc.load
	if load == nil {
		load = make([]uint64, c.Format.LeafCap)
		for i := range load {
			load[i] = uint64(2 * (i + 1))
		}
	}
	kvs := make([]layout.KV, len(load))
	for i, k := range load {
		kvs[i] = layout.KV{Key: k, Value: faultVal(k)}
	}
	tr.Bulkload(kvs)
	return testutil.Faults(be), tr, load
}

// runCrashing runs fn and reports whether it aborted with a compute-server
// crash.
func runCrashing(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := transport.IsCrash(r); ok {
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// TestCrashAtEveryVerb is the fault-model property test, on both fabrics:
// for every scripted operation, every configuration of the consistency x
// combine grid, and every fabric-verb index of the operation, a
// compute-server crash injected at that verb must leave the tree
// recoverable — the survivor's retry is idempotent (reclaiming the dead
// session's lock if held), the structural sweep completes any half-done
// split, Validate passes, and every acknowledged write (bulkload + prefix)
// is durable. The in-flight operation itself must be invisible or fully
// applied, never torn. Over TCP a victim killed holding a lock costs the
// survivor the real 200 ms lease before it steals the lock, which is most
// of that cell's time.
func TestCrashAtEveryVerb(t *testing.T) {
	for _, cfg := range faultConfigs() {
		for _, sc := range faultScenarios() {
			t.Run(faultCfgName(cfg)+"/"+sc.name, func(t *testing.T) {
				testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
					crashAtEveryVerb(t, fab, cfg, sc)
				})
			})
		}
	}
}

func crashAtEveryVerb(t *testing.T, fab testutil.Fabric, cfg core.Config, sc faultScenario) {
	// Dry run: count the operation's fabric verbs.
	faults, tr, load := buildFaultTree(t, fab, cfg, sc)
	victim := tr.NewHandle(1, 1)
	if sc.prefix != nil {
		sc.prefix(victim)
	}
	v0 := faults.Verbs(1)
	sc.op(victim)
	verbs := int(faults.Verbs(1) - v0)
	if verbs < 2 {
		t.Fatalf("implausible verb count %d", verbs)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("dry run left invalid tree: %v", err)
	}

	for i := 1; i <= verbs; i++ {
		faults, tr, load = buildFaultTree(t, fab, cfg, sc)
		victim = tr.NewHandle(1, 1)
		if sc.prefix != nil {
			sc.prefix(victim)
		}
		faults.KillAtVerb(1, int64(i))
		if !runCrashing(func() { sc.op(victim) }) {
			t.Fatalf("verb %d/%d: victim survived its armed kill", i, verbs)
		}

		surv := tr.NewHandle(0, 2)
		surv.SetClock(victim.C.Now())

		// Invisible or fully applied, never torn.
		got, ok := surv.Lookup(sc.key)
		switch {
		case sc.deleted:
			if ok && got != sc.old {
				t.Fatalf("verb %d: delete left torn value %#x", i, got)
			}
		case sc.present:
			if !ok || (got != sc.old && got != sc.new) {
				t.Fatalf("verb %d: update left (%#x,%v), want old %#x or new %#x", i, got, ok, sc.old, sc.new)
			}
		default:
			if ok && got != sc.new {
				t.Fatalf("verb %d: insert left torn value %#x", i, got)
			}
		}

		// The survivor's retry is idempotent and reclaims the dead
		// session's lock when the crash left it held.
		sc.op(surv)
		if _, complete := surv.RecoverStructure(); !complete {
			t.Fatalf("verb %d: recovery pass budget exhausted", i)
		}

		if err := tr.Validate(); err != nil {
			t.Fatalf("verb %d/%d: post-recovery validate: %v", i, verbs, err)
		}
		// Acked writes are durable; the retried op is applied.
		for _, k := range load {
			want, wantOK := faultVal(k), true
			if k == sc.key {
				want, wantOK = sc.new, !sc.deleted
			}
			got, ok := surv.Lookup(k)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("verb %d: key %d = (%#x,%v), want (%#x,%v)", i, k, got, ok, want, wantOK)
			}
		}
		if sc.prefix != nil {
			if got, ok := surv.Lookup(faultPrefixKey); !ok || got != faultPrefixVal {
				t.Fatalf("verb %d: acked prefix write lost: (%#x,%v)", i, got, ok)
			}
		}
		if !sc.deleted && !sc.present {
			if got, ok := surv.Lookup(sc.key); !ok || got != sc.new {
				t.Fatalf("verb %d: retried insert missing: (%#x,%v)", i, got, ok)
			}
		}
	}
}

// TestReleaseFollowsWriteBack: a lock is free only once its holder's
// write-backs are stored. On each fabric and every configuration of the
// consistency x combine grid, a second writer on another compute server
// updates the same key the moment the first writer's release WRITE (alone,
// or at the end of its doorbell batch) returns, and a tap hook holds the
// first writer there until the second finishes (2 s at most). The key must
// end at the second value: a release posted ahead of a write-back lets the
// second writer read the old leaf, and the late write-back then overwrites
// its update. TestCrashAtEveryVerb cannot see that order: a crash between
// the early release and the write-back leaves the op invisible, which it
// accepts. On the simulator the lock slot is handed on only after the
// holder's whole flush, so the first writer is not held and the order
// stays invisible there; over TCP the lock word is the whole lock, so the
// second writer takes it at once.
func TestReleaseFollowsWriteBack(t *testing.T) {
	const key, first, second = 120, 0xbeef, 0xf00d
	for _, cfg := range faultConfigs() {
		t.Run(faultCfgName(cfg), func(t *testing.T) {
			testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
				be, _ := fab.New(t, 2, 2, 0)
				// The simulator hands a lock slot on only after the holder's
				// whole flush, so a hold there could only time out.
				hb := &releaseHook{hold: 2 * time.Second}
				if fab.Name == testutil.Sim.Name {
					hb.hold = 0
				}
				c := cfg
				c.BulkFill = 1.0
				tr := core.New(testutil.Tap(t, be, hb.hook), c)
				var kvs []layout.KV
				for k := uint64(2); k <= 240; k += 2 {
					kvs = append(kvs, layout.KV{Key: k, Value: faultVal(k)})
				}
				tr.Bulkload(kvs)
				w1, w2 := tr.NewHandle(1, 1), tr.NewHandle(0, 2)
				hb.second = func() { w2.Insert(key, second) }
				w1.Insert(key, first)
				if hb.done == nil {
					t.Fatal("the first writer's release WRITE was never seen")
				}
				select {
				case <-hb.done:
				case <-time.After(10 * time.Second):
					t.Fatal("the second writer did not finish within 10 s of the first writer's release")
				}
				if got, ok := tr.NewHandle(0, 3).Lookup(key); !ok || got != second {
					t.Fatalf("key %d = (%#x, %v), want the second writer's %#x", key, got, ok, second)
				}
				if err := tr.Validate(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// releaseHook watches compute server 1's thread. It remembers the lock
// word the thread's last swapping CAS took. Once a WRITE to that word
// returns (alone, or last in a doorbell batch), it runs second on a
// goroutine, closing done when second returns, and holds the thread there
// until then, or for hold at most.
type releaseHook struct {
	hold   time.Duration
	lock   transport.Addr
	second func()
	done   chan struct{}
}

func (x *releaseHook) hook(cs int) tap.Hook {
	if cs != 1 {
		return nil
	}
	return x.after
}

func (x *releaseHook) after(c tap.Call) {
	switch c.Kind {
	case tap.CAS, tap.CAS16, tap.CASBacklog, tap.CAS16Backlog:
		// The backlog CASes are how the simulator's lock manager takes a
		// slot it was granted.
		if c.Swapped {
			x.lock = c.Addr
		}
	case tap.CASRead, tap.CAS16Read:
		if c.Swapped {
			x.lock = c.Lock
		}
	case tap.Write, tap.PostWrites:
		last := c.Addr
		if n := len(c.Writes); n > 0 {
			last = c.Writes[n-1].Addr
		}
		if last != x.lock || x.done != nil {
			return
		}
		x.done = make(chan struct{})
		go func() {
			defer close(x.done)
			x.second()
		}()
		select {
		case <-x.done:
		case <-time.After(x.hold):
		}
	}
}

// TestReclaimCountsAndLeaseExpiry pins the lock-layer accounting: a victim
// killed at its commit verb leaves exactly one orphaned lock, and the
// survivor's conflicting write reclaims it (observable in the manager's
// counters and the survivor's recorder).
func TestReclaimCountsAndLeaseExpiry(t *testing.T) {
	for _, cfg := range faultConfigs() {
		sc := faultScenarios()[0] // update-inplace
		faults, tr, _ := buildFaultTree(t, testutil.Sim, cfg, sc)
		victim := tr.NewHandle(1, 1)
		v0 := faults.Verbs(1)
		victim.Insert(sc.key, 1)
		verbs := int(faults.Verbs(1) - v0)

		faults, tr, _ = buildFaultTree(t, testutil.Sim, cfg, sc)
		victim = tr.NewHandle(1, 1)
		faults.KillAtVerb(1, int64(verbs)) // the commit verb: lock held
		if !runCrashing(func() { victim.Insert(sc.key, 1) }) {
			t.Fatalf("%s: victim survived", faultCfgName(cfg))
		}
		if got := tr.LockStats().LeaseExpiries.Load(); got != 1 {
			t.Fatalf("%s: lease expiries = %d, want 1", faultCfgName(cfg), got)
		}
		surv := tr.NewHandle(0, 2)
		surv.SetClock(victim.C.Now())
		surv.Insert(sc.key, 2)
		if got := tr.LockStats().Reclaims.Load(); got != 1 {
			t.Fatalf("%s: reclaims = %d, want 1", faultCfgName(cfg), got)
		}
		if surv.Rec.Reclaims != 1 {
			t.Fatalf("%s: recorder reclaims = %d, want 1", faultCfgName(cfg), surv.Rec.Reclaims)
		}
		if v, ok := surv.Lookup(sc.key); !ok || v != 2 {
			t.Fatalf("%s: post-reclaim value (%d,%v), want (2,true)", faultCfgName(cfg), v, ok)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", faultCfgName(cfg), err)
		}
	}
}
