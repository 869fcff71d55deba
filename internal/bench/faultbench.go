package bench

import (
	"fmt"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport"
	"sherman/internal/workload"
)

// This file is the partial-failure experiment: compute servers crash and
// restart mid-measurement while the survivors keep serving. It is not a
// paper figure — conf_sigmod_WangLS22 evaluates the failure-free path — but
// the one-sided design makes the client the unit of failure, so the
// interesting questions are all on the recovery side: how deep the
// throughput dips when a compute server dies holding locks, how long lease
// reclamation and the structural REDO sweep take, and whether the tree is
// Validate-clean afterwards.

// FaultRound is one measurement window of the churn run.
type FaultRound struct {
	// Victim is the compute server killed mid-window (-1: fault-free
	// baseline round).
	Victim int
	// Mops is whole-cluster throughput over the round; SurvivorMops counts
	// only threads of surviving compute servers.
	Mops, SurvivorMops float64
	// LeaseExpiries and Reclaims are the lock manager's deltas over the
	// round including recovery: locks orphaned by the crash, and orphaned
	// locks survivors freed by expired-lease reclamation.
	LeaseExpiries, Reclaims int64
	// Repairs is the number of half-done splits the post-round recovery
	// sweep completed; RecoveryNS is the sweep's virtual duration.
	Repairs    int
	RecoveryNS int64
	// ValidateErr is the post-recovery structural check's result.
	ValidateErr error
}

// FaultResult is the outcome of one churn run.
type FaultResult struct {
	Rounds []FaultRound
}

// faultNumMS and faultNumCS shape the churn cluster (smaller than the
// paper's: each round is a full window and the per-round recovery sweep
// reads the whole tree).
const (
	faultNumMS = 4
	faultNumCS = 4
)

// RunFaults executes the crash/restart churn experiment over e's fixture:
// a fault-free baseline round, then `rounds` rounds that each kill compute
// server r % e.NumCS one third into the window, run recovery from a
// survivor, validate the tree, and restart the victim before the next
// round.
func RunFaults(e TreeExp, rounds int) FaultResult {
	fx := newFixture(e, 0, 0)
	e = fx.e
	fx.seed = fx.threads() // window handles draw seeds from n up
	var res FaultResult
	// Round -2 warms the index caches and is discarded; round -1 is the
	// fault-free baseline; rounds 0.. each kill one compute server.
	for round := -2; round < rounds; round++ {
		victim := -1
		var kill func(int64, func(int64)) int64
		if round >= 0 {
			victim = round % e.NumCS
			kill = killAtThird(e.MeasureNS, func(at int64) { fx.cl.Faults().KillAtTime(victim, at) })
		}
		ls := fx.tr.LockStats()
		expiries0, reclaims0 := ls.LeaseExpiries.Load(), ls.Reclaims.Load()

		recs, end := fx.window(fx.worker, kill)
		if round == -2 {
			continue
		}

		// Throughput is completed operations over the fixed round window —
		// the aggregation under which a mid-window crash shows as a dip: a
		// dead server's silence lowers the cluster total even while the
		// survivors' per-thread rates rise with the lightened contention.
		r := FaultRound{Victim: victim}
		for i, rec := range recs {
			m := stats.ThroughputMops(rec.TotalOps(), e.MeasureNS)
			r.Mops += m
			if i%e.NumCS != victim {
				r.SurvivorMops += m
			}
		}

		// Recovery runs from the first surviving compute server: complete
		// any splits the dead clients left half-done. Orphaned locks are
		// reclaimed on demand (mostly already during the round, by
		// survivors landing on the victim's leaves).
		recCS := 0
		if victim == 0 {
			recCS = 1 % e.NumCS
		}
		recH := fx.handle(recCS)
		recH.SetClock(end)
		r.Repairs, _ = recH.RecoverStructure()
		r.RecoveryNS = recH.C.Now() - end
		r.ValidateErr = fx.tr.Validate()

		ls = fx.tr.LockStats()
		r.LeaseExpiries = ls.LeaseExpiries.Load() - expiries0
		r.Reclaims = ls.Reclaims.Load() - reclaims0
		res.Rounds = append(res.Rounds, r)

		if victim >= 0 {
			fx.cl.Faults().Restart(victim)
		}
		fx.clock = recH.C.Now() + 10_000
	}
	return res
}

func faultExp(s Scale) TreeExp {
	return TreeExp{
		NumMS:        faultNumMS,
		NumCS:        faultNumCS,
		Keys:         s.Keys,
		ThreadsPerCS: s.ThreadsPerCS,
		MeasureNS:    s.MeasureNS,
		Mix:          workload.WriteIntensive,
		Dist:         workload.Zipfian,
		Tree:         core.ShermanConfig(),
	}
}

// FaultChurn runs the churn experiment and renders the per-round
// trajectory, also returning the raw result so `-check` can assert on the
// very rounds it rendered instead of re-running the churn. Round -1 is the
// fault-free baseline; each later round kills one compute server a third
// into its window. When c is non-nil, typed per-round metrics are recorded
// for the JSON report.
func FaultChurn(s Scale, c *Collector) (*Table, FaultResult) {
	rounds := 3
	if s.Keys >= FullScale().Keys { // full scale: more churn
		rounds = 6
	}
	e := faultExp(s)
	r := RunFaults(e, rounds)
	t := NewTable(fmt.Sprintf("Faults: crash/restart churn (write-intensive, zipfian, %d CS x %d threads)", e.NumCS, e.ThreadsPerCS),
		"round", "victim", "Mops", "survivor Mops", "lease exp", "reclaims", "repairs", "recovery(us)", "validate")
	for i, round := range r.Rounds {
		label, victim := fmt.Sprint(i-1), "-"
		if round.Victim < 0 {
			label = "base"
		} else {
			victim = fmt.Sprintf("cs%d", round.Victim)
		}
		valid := "ok"
		if round.ValidateErr != nil {
			valid = round.ValidateErr.Error()
		}
		t.Add(label, victim, MopsString(round.Mops), MopsString(round.SurvivorMops),
			fmt.Sprint(round.LeaseExpiries), fmt.Sprint(round.Reclaims),
			fmt.Sprint(round.Repairs), USString(round.RecoveryNS), valid)
		c.Add(Metric{
			Exp: "faults", Name: fmt.Sprintf("faults/round=%s", label),
			Mops: round.Mops, Reclaims: round.Reclaims, RecoveryNS: round.RecoveryNS,
		})
	}
	t.Note("victims are killed one third into the window and restarted after recovery")
	t.Note("reclaims free orphaned locks after the lease expires; repairs complete half-done splits")
	return t, r
}

// FaultGate is the CI check behind `shermanbench -exp faults -check`. It
// asserts the deterministic heart of the failure model: a compute server
// killed at the final verb of a put — the commit doorbell, with the leaf
// lock held — leaves a lock a survivor must reclaim, after which the tree
// validates and the acked data is intact; and every round of the churn the
// same invocation already ran (churn; run a short one when nil) ended
// Validate-clean and made progress.
func FaultGate(s Scale, churn *FaultResult) error {
	for _, cfg := range []core.Config{core.ShermanConfig(), core.FGPlusConfig()} {
		if err := midWriteCrashCheck(cfg); err != nil {
			return fmt.Errorf("fault gate (%s): %w", cfg.Name(), err)
		}
	}
	if churn == nil {
		r := RunFaults(faultExp(s), 2)
		churn = &r
	}
	for i, round := range churn.Rounds {
		if round.ValidateErr != nil {
			return fmt.Errorf("fault gate: churn round %d left an invalid tree: %w", i-1, round.ValidateErr)
		}
		if round.Mops <= 0 {
			return fmt.Errorf("fault gate: churn round %d made no progress", i-1)
		}
	}
	return nil
}

// midWriteCrashCheck kills a single-threaded victim at the last fabric verb
// of an in-place put — dropping the commit (and in Combine mode the
// combined lock release) while the HOCL slot is held — then drives
// recovery from a survivor and checks every invariant the fault model
// promises.
func midWriteCrashCheck(cfg core.Config) error {
	build := func() (*cluster.Cluster, *core.Tree) {
		cl := cluster.New(cluster.Config{NumMS: 2, NumCS: 2})
		tr := core.New(cl, cfg)
		kvs := make([]layout.KV, 64)
		for i := range kvs {
			kvs[i] = layout.KV{Key: uint64(i + 1), Value: bulkValue(uint64(i + 1))}
		}
		if err := tr.Bulkload(kvs); err != nil {
			panic(err)
		}
		return cl, tr
	}

	// Dry run: count the verbs of the put on an identical cluster.
	key, val := uint64(7), uint64(0xfa011)
	cl, tr := build()
	victim := tr.NewHandle(1, 1)
	v0 := cl.Faults().Verbs(1)
	victim.Insert(key, val)
	putVerbs := cl.Faults().Verbs(1) - v0
	if putVerbs < 2 {
		return fmt.Errorf("implausible verb count %d for a put", putVerbs)
	}

	// Measured run: kill the victim at the put's final verb.
	cl, tr = build()
	victim = tr.NewHandle(1, 1)
	cl.Faults().KillAtVerb(1, putVerbs)
	crashed := func() (crashed bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := transport.IsCrash(r); ok {
					crashed = true
					return
				}
				panic(r)
			}
		}()
		victim.Insert(key, val)
		return false
	}()
	if !crashed {
		return fmt.Errorf("victim survived its armed kill (verb %d)", putVerbs)
	}

	// A survivor writing the same leaf must find the orphaned lock and
	// reclaim it after the lease expires.
	surv := tr.NewHandle(0, 2)
	surv.SetClock(victim.C.Now())
	surv.Insert(key, val+1)
	if got := tr.LockStats().Reclaims.Load(); got < 1 {
		return fmt.Errorf("survivor write did not reclaim the orphaned lock (reclaims=%d)", got)
	}
	if _, complete := surv.RecoverStructure(); !complete {
		return fmt.Errorf("recovery pass budget exhausted")
	}
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("post-recovery validate failed: %w", err)
	}
	if v, ok := surv.Lookup(key); !ok || v != val+1 {
		return fmt.Errorf("acked write lost: got (%d,%v), want (%d,true)", v, ok, val+1)
	}
	if v, ok := surv.Lookup(1); !ok || v != bulkValue(1) {
		return fmt.Errorf("bulkloaded key lost: got (%d,%v)", v, ok)
	}
	return nil
}
