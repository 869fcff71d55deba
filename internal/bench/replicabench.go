package bench

import (
	"fmt"

	"sherman/internal/core"
	"sherman/internal/replica"
	"sherman/internal/stats"
	"sherman/internal/workload"
)

// This file is the replication experiment (DESIGN.md §12): a factor-2
// cluster serves a write-intensive workload through a steady window, a kill
// window in which one memory server dies a third of the way in, an online
// repair (replacement server + re-replication sweep), and a recovered
// window — against an unreplicated control cluster of the same shape.
// Reported: the replication tax in steady state (mirrored writes ride
// detached doorbells, so it should be small), write amplification and the
// bounded replica lag, the dip and the repair time, and the experiment's
// reason to exist: acknowledged writes tracked per worker through the kill
// window, every one of which must survive the failover, exactly once.

// Stripe keys live far above any workload key and give each worker a
// private, contiguous, conflict-free range: worker i's j-th tracked write
// is stripeKeyBase(i)+j, acked strictly in order, so the post-repair check
// knows exactly which keys the tree owes it.
const (
	stripeStart = uint64(1) << 32
	stripeSpan  = uint64(1) << 20
	stripeEvery = 4 // every 4th kill-window op is a tracked write
)

func stripeKeyBase(worker int) uint64 {
	return stripeStart + uint64(worker)*stripeSpan
}

// The replication cluster: replicaNumMS memory servers at factor 2 (one
// more may join as the victim's replacement), of which replicaVictim dies
// mid-window (never 0, which holds the superblock).
const (
	replicaNumMS  = 4
	replicaVictim = 1
)

// ReplicaResult is the outcome of one replication run.
type ReplicaResult struct {
	// SteadyMops is replicated fault-free throughput; ControlMops the same
	// workload on an unreplicated cluster of the same shape (the replication
	// tax is their ratio). KillMops is the window in which the victim dies a
	// third in; RecoveredMops the steady state after repair.
	SteadyMops, KillMops, RecoveredMops, ControlMops float64

	// ReplicaWritesPerWrite is mirror WRITEs per write op over the steady
	// window — the replication write amplification. ReplicaLagMaxNS is the
	// worst observed commit-to-mirror-completion gap.
	ReplicaWritesPerWrite float64
	ReplicaLagMaxNS       int64

	// FailedOver counts chunks promoted to their replica by the death;
	// RepairedChunks the chunks the re-replication sweep rebuilt, over
	// RecoveryNS of virtual time on the repairing thread.
	FailedOver     int64
	RepairedChunks int
	RecoveryNS     int64

	// AckedWrites counts tracked writes acknowledged during the kill
	// window; LostAcked how many of them were unreadable (or misvalued)
	// after failover + repair, and DupOrPhantom how many stripe keys the
	// post-repair scan saw more than once or never acked at all. The gate
	// demands both stay zero.
	AckedWrites, LostAcked, DupOrPhantom int64

	// LostChunks counts chunks whose primary died with no replica — data
	// loss, must be zero. UnderReplicated is the post-repair count.
	LostChunks      int64
	UnderReplicated int

	ValidateErr error
}

// RunReplica executes the replication experiment over e's fixture.
func RunReplica(e TreeExp) ReplicaResult {
	var res ReplicaResult
	fx := newFixture(e, 1, 2)
	e = fx.e
	n := fx.threads()
	fx.seed = n // window handles draw seeds from n up

	window := func(fx *fixture, worker func(int) Worker, kill func(int64, func(int64)) int64) (float64, *stats.Recorder) {
		recs, _ := fx.window(worker, kill)
		merged := stats.NewRecorder()
		var mops float64
		for _, rec := range recs {
			merged.Merge(rec)
			mops += stats.ThroughputMops(rec.TotalOps(), e.MeasureNS)
		}
		return mops, merged
	}

	// Warmup window (discarded), then the replicated fault-free steady state.
	window(fx, fx.worker, nil)
	var steadyRec *stats.Recorder
	res.SteadyMops, steadyRec = window(fx, fx.worker, nil)
	if w := steadyRec.Ops[stats.OpInsert] + steadyRec.Ops[stats.OpDelete]; w > 0 {
		res.ReplicaWritesPerWrite = float64(steadyRec.ReplicaWrites) / float64(w)
	}
	res.ReplicaLagMaxNS = steadyRec.ReplicaLagMaxNS

	// Kill window: the victim dies one third in, while every worker tracks
	// its acked writes on a private key stripe: from its first op, every
	// stripeEvery-th is the next stripe key, counted only once the insert
	// returns. Memory-server death is invisible to the clients beyond
	// latency — every op completes.
	acked := make([]int64, n)
	res.KillMops, _ = window(fx, func(i int) Worker {
		h := fx.handle(i % e.NumCS)
		w := fx.opWorker(h, i)
		gen, j := w.Issue, 0
		w.Issue = func() int {
			j++
			if (j-1)%stripeEvery != 0 {
				return gen()
			}
			k := stripeKeyBase(i) + uint64(acked[i])
			h.Insert(k, bulkValue(k))
			acked[i]++
			return 1
		}
		return w
	}, killAtThird(e.MeasureNS, func(at int64) { fx.cl.Faults().KillMSAtTime(replicaVictim, at) }))
	if fx.cl.MSAlive(replicaVictim) {
		// Nothing tripped the armed kill (a degenerate window); fire it so
		// the rest of the run still measures failover + repair.
		fx.cl.Faults().KillMS(replicaVictim)
	}
	res.FailedOver = fx.cl.Failovers()
	res.LostChunks = fx.cl.Rep.Lost()
	for _, a := range acked {
		res.AckedWrites += a
	}

	// Repair: a replacement server joins, then a re-replication sweep
	// rebuilds every missing copy. RecoveryNS is the sweep's virtual span.
	if _, err := fx.cl.AddMS(); err != nil {
		panic(err)
	}
	rh := fx.handle(0)
	rh.SetClock(fx.cl.Faults().LatestVerbV())
	t0 := rh.C.Now()
	for i := 0; ; i++ {
		st, err := replica.New(rh, replica.Options{MaxChunks: 1 << 20}).ReReplicate()
		if err != nil {
			panic(err)
		}
		res.RepairedChunks += st.ChunksRepaired
		if len(fx.cl.Rep.UnderReplicated(2)) == 0 || i >= 64 {
			break
		}
	}
	res.RecoveryNS = rh.C.Now() - t0
	res.UnderReplicated = len(fx.cl.Rep.UnderReplicated(2))

	// Zero lost acked writes, exactly once: every tracked key a worker got
	// an ack for must read back with its exact value through the promoted
	// replicas, and a stripe scan must see each exactly once and nothing
	// the worker never acked.
	ch := fx.handle(0)
	ch.SetClock(rh.C.Now() + 10_000)
	for i, cnt := range acked {
		base := stripeKeyBase(i)
		for j := int64(0); j < cnt; j++ {
			k := base + uint64(j)
			if v, ok := ch.Lookup(k); !ok || v != bulkValue(k) {
				res.LostAcked++
			}
		}
		for _, kv := range ch.Range(base, int(cnt)+8) {
			if kv.Key < base || kv.Key >= base+stripeSpan {
				continue
			}
			if kv.Key >= base+uint64(cnt) {
				res.DupOrPhantom++ // never acked, yet reachable in-stripe
			}
		}
		// A duplicated key would displace a later one out of the scan's
		// ordered prefix; recheck the prefix is exactly the acked range.
		kvs := ch.Range(base, int(cnt))
		for j := int64(0); j < cnt; j++ {
			if int(j) >= len(kvs) || kvs[j].Key != base+uint64(j) {
				res.DupOrPhantom++
				break
			}
		}
	}
	fx.clock = ch.C.Now() + 10_000

	// Steady state after repair, then the structural check.
	res.RecoveredMops, _ = window(fx, fx.worker, nil)
	res.ValidateErr = fx.tr.Validate()

	// Control: the same shape and workload, replication off.
	ctl := newFixture(e, 1, 0)
	ctl.seed = n
	window(ctl, ctl.worker, nil)
	res.ControlMops, _ = window(ctl, ctl.worker, nil)
	return res
}

func replicaExp(s Scale) TreeExp {
	return TreeExp{
		NumMS:        replicaNumMS,
		NumCS:        4,
		Keys:         s.Keys,
		ThreadsPerCS: min(s.ThreadsPerCS, 8),
		MeasureNS:    s.MeasureNS,
		Mix:          workload.WriteIntensive,
		Dist:         workload.Zipfian,
		Tree:         core.ShermanConfig(),
	}
}

// Replica runs the replication experiment and renders its trajectory. When c
// is non-nil, typed metrics land in the JSON report (BENCH_7.json).
func Replica(s Scale, c *Collector) (*Table, *ReplicaResult) {
	e := replicaExp(s)
	r := RunReplica(e)
	t := NewTable(fmt.Sprintf("Replica: factor-2 vs none, MS killed mid-window (write-intensive zipfian, %d MS, %d CS x %d threads)",
		e.NumMS, e.NumCS, e.ThreadsPerCS),
		"phase", "Mops", "notes")
	t.Add("control (no replication)", MopsString(r.ControlMops), "same cluster shape, factor 0")
	t.Add("steady (factor 2)", MopsString(r.SteadyMops),
		fmt.Sprintf("%.2f mirror writes/write, max lag %s us", r.ReplicaWritesPerWrite, USString(r.ReplicaLagMaxNS)))
	t.Add("kill window", MopsString(r.KillMops),
		fmt.Sprintf("ms%d dies 1/3 in: %d chunks failed over, %d lost", replicaVictim, r.FailedOver, r.LostChunks))
	t.Add("repair", "-",
		fmt.Sprintf("%d chunks re-replicated in %s us; %d under-replicated left", r.RepairedChunks, USString(r.RecoveryNS), r.UnderReplicated))
	valid := "ok"
	if r.ValidateErr != nil {
		valid = r.ValidateErr.Error()
	}
	t.Add("recovered", MopsString(r.RecoveredMops),
		fmt.Sprintf("acked writes %d, lost %d, dup/phantom %d; validate %s",
			r.AckedWrites, r.LostAcked, r.DupOrPhantom, valid))
	t.Note("every kill-window worker tracks acked writes on a private key stripe; all must survive, exactly once")
	t.Note("mirrors ride detached doorbells, so steady-state cost is NIC load on the replicas, not commit latency")

	c.Add(Metric{Exp: "replica", Name: "replica/control", Mops: r.ControlMops})
	c.Add(Metric{Exp: "replica", Name: "replica/steady", Mops: r.SteadyMops, Gate: true})
	c.Add(Metric{Exp: "replica", Name: "replica/kill", Mops: r.KillMops})
	c.Add(Metric{Exp: "replica", Name: "replica/recovered", Mops: r.RecoveredMops, RecoveryNS: r.RecoveryNS})
	return t, &r
}

// ReplicaGate is the CI check behind `shermanbench -exp replica -check`: the
// mid-window memory-server death must lose zero acknowledged writes (each
// tracked key reachable exactly once after failover + re-replication), the
// failover must actually have promoted chunks with none lost outright,
// repair must restore full redundancy on a Validate-clean tree, and
// replicated steady-state throughput must stay within 90% of the
// unreplicated control.
func ReplicaGate(r *ReplicaResult) error {
	if r == nil {
		return fmt.Errorf("replica gate: experiment did not run")
	}
	if r.AckedWrites == 0 {
		return fmt.Errorf("replica gate: kill window acknowledged no tracked writes")
	}
	if r.LostAcked != 0 {
		return fmt.Errorf("replica gate: %d of %d acked writes lost to the failover", r.LostAcked, r.AckedWrites)
	}
	if r.DupOrPhantom != 0 {
		return fmt.Errorf("replica gate: %d stripe keys not reachable exactly once", r.DupOrPhantom)
	}
	if r.FailedOver == 0 {
		return fmt.Errorf("replica gate: the kill promoted no chunks (victim empty?)")
	}
	if r.LostChunks != 0 {
		return fmt.Errorf("replica gate: %d chunks lost every copy", r.LostChunks)
	}
	if r.UnderReplicated != 0 {
		return fmt.Errorf("replica gate: %d chunks still under-replicated after repair", r.UnderReplicated)
	}
	if r.ValidateErr != nil {
		return fmt.Errorf("replica gate: tree invalid after repair: %w", r.ValidateErr)
	}
	if r.SteadyMops < 0.90*r.ControlMops {
		return fmt.Errorf("replica gate: replicated steady state %.2f Mops under 90%% of control %.2f",
			r.SteadyMops, r.ControlMops)
	}
	if r.KillMops <= 0 || r.RecoveredMops <= 0 {
		return fmt.Errorf("replica gate: no progress in the kill or recovered window")
	}
	return nil
}
