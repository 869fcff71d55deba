package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sherman"
	"sherman/internal/bench"
)

// runTCPFault is the -exp tcpfault experiment: the replica experiment's
// kill→failover→re-replicate walkthrough over real sockets. Three shermand
// processes serve a factor-2 tree; workers hammer it through a steady
// window, then a kill window in which one server's process is SIGKILLed for
// real (mid-doorbell if one is in flight) while every worker tracks the
// writes it got acks for on a private key stripe; re-replication then
// restores full redundancy on the two survivors, and a read-back pass
// demands every acked write back, exactly once. Throughput is honest Mops
// over the wall clock — real sockets, real failure detection, real repair.
//
// Unlike the sim-side replica experiment the throughput numbers are not
// band-gated (loopback wall time is too noisy across CI hosts); the gate is
// purely semantic — zero lost acked writes, at least one failover, full
// post-repair redundancy, Validate clean.

// Stripe keys mirror internal/bench's replica experiment: far above the
// control key space, one private contiguous range per worker, acked strictly
// in order.
const (
	tfStripeStart = uint64(1) << 32
	tfStripeSpan  = uint64(1) << 20
	tfStripeEvery = 4 // every 4th kill-window op is a tracked write
)

func tfStripeKey(worker int, j int64) uint64 {
	return tfStripeStart + uint64(worker)*tfStripeSpan + uint64(j)
}

// tfValue is the deterministic value a tracked or control key carries, so
// the read-back can verify content, not just presence.
func tfValue(k uint64) uint64 { return k*2654435761 + 1 }

// tcpFaultResult is the outcome tcpFaultGate checks.
type tcpFaultResult struct {
	Victim int

	SteadyMops, KillMops, RecoveredMops float64

	AckedWrites, LostAcked, DupOrPhantom int64

	FailedOver, LostChunks int64
	RepairedChunks         int
	UnderReplicated        int
	RepairWall             time.Duration

	KillErr     error
	ValidateErr error
}

func runTCPFault(bench.Scale, *bench.Collector) ([]*bench.Table, func() error, error) {
	const (
		numMS    = 3
		numCS    = 2
		workers  = 4
		keySpace = 4096
		preload  = 512

		steadyWindow    = 300 * time.Millisecond
		killWindow      = 700 * time.Millisecond
		killAfter       = 200 * time.Millisecond
		recoveredWindow = 300 * time.Millisecond
	)

	c, err := sherman.NewCluster(sherman.ClusterConfig{
		MemoryServers:     numMS,
		ComputeServers:    numCS,
		Transport:         sherman.TransportTCP,
		ReplicationFactor: 2,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("tcpfault: %w", err)
	}
	defer c.Close()
	tree, err := c.CreateTree(sherman.TreeOptions{})
	if err != nil {
		return nil, nil, err
	}
	var kvs []sherman.KV
	for k := uint64(1); k <= preload; k++ {
		kvs = append(kvs, sherman.KV{Key: k, Value: tfValue(k)})
	}
	if err := tree.Bulkload(kvs); err != nil {
		return nil, nil, err
	}

	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	res := &tcpFaultResult{Victim: 1 + rng.Intn(numMS-1)}

	// window runs every worker for the given wall span and returns Mops.
	// When acked is non-nil each worker issues a tracked stripe write as
	// every tfStripeEvery-th op, bumping its counter only after the ack.
	seed := int64(1)
	window := func(span time.Duration, acked []int64) (float64, error) {
		var ops atomic.Int64
		var firstErr error
		var errMu sync.Mutex
		deadline := time.Now().Add(span)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, seed int64) {
				defer wg.Done()
				s, err := tree.SessionAt(w % numCS)
				if err == nil {
					err = func() error {
						r := rand.New(rand.NewSource(seed))
						for j := int64(0); time.Now().Before(deadline); j++ {
							if acked != nil && j%tfStripeEvery == 0 {
								k := tfStripeKey(w, acked[w])
								if err := s.PutE(k, tfValue(k)); err != nil {
									return err
								}
								acked[w]++
							} else {
								key := uint64(r.Intn(keySpace)) + 1
								switch v := r.Intn(100); {
								case v < 50:
									if err := s.PutE(key, tfValue(key)); err != nil {
										return err
									}
								case v < 80:
									if _, _, err := s.GetE(key); err != nil {
										return err
									}
								default:
									if _, err := s.DeleteE(key); err != nil {
										return err
									}
								}
							}
							ops.Add(1)
						}
						return s.Flush()
					}()
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("tcpfault: worker %d: %w", w, err)
					}
					errMu.Unlock()
				}
			}(w, seed+int64(w))
		}
		wg.Wait()
		seed += workers
		if firstErr != nil {
			return 0, firstErr
		}
		return float64(ops.Load()) / span.Seconds() / 1e6, nil
	}

	// Steady window, factor-2, fault-free.
	if _, err := window(steadyWindow, nil); err != nil { // warmup, discarded
		return nil, nil, err
	}
	if res.SteadyMops, err = window(steadyWindow, nil); err != nil {
		return nil, nil, err
	}

	// Kill window: SIGKILL the victim's process partway in, workers running.
	acked := make([]int64, workers)
	killTimer := time.AfterFunc(killAfter, func() {
		res.KillErr = c.KillMemoryServer(res.Victim)
	})
	res.KillMops, err = window(killWindow, acked)
	killTimer.Stop()
	if err != nil {
		return nil, nil, err
	}
	if res.KillErr != nil {
		return nil, nil, fmt.Errorf("tcpfault: killing ms%d: %w", res.Victim, res.KillErr)
	}
	st := c.ReplicationStats()
	res.FailedOver, res.LostChunks = st.Failovers, st.LostChunks
	for _, a := range acked {
		res.AckedWrites += a
	}

	// Repair: re-replicate onto the two survivors until fully redundant.
	repairStart := time.Now()
	for i := 0; ; i++ {
		rst, err := tree.ReReplicate(0)
		if err != nil {
			return nil, nil, fmt.Errorf("tcpfault: re-replication: %w", err)
		}
		res.RepairedChunks += rst.ChunksRepaired
		if c.ReplicationStats().UnderReplicated == 0 || i >= 64 {
			break
		}
	}
	res.RepairWall = time.Since(repairStart)
	res.UnderReplicated = c.ReplicationStats().UnderReplicated

	// Read-back: every acked stripe write must be present with its exact
	// value through the promoted replicas, exactly once, and nothing a
	// worker never acked may appear in its stripe.
	check, err := tree.SessionAt(0)
	if err != nil {
		return nil, nil, err
	}
	for w := 0; w < workers; w++ {
		cnt := acked[w]
		base := tfStripeKey(w, 0)
		for j := int64(0); j < cnt; j++ {
			k := tfStripeKey(w, j)
			v, ok, err := check.GetE(k)
			if err != nil {
				return nil, nil, err
			}
			if !ok || v != tfValue(k) {
				res.LostAcked++
			}
		}
		kvs, err := check.ScanE(base, int(cnt)+8)
		if err != nil {
			return nil, nil, err
		}
		for j, kv := range kvs {
			if kv.Key >= base+tfStripeSpan {
				break // next worker's stripe (or beyond)
			}
			if kv.Key >= base+uint64(cnt) {
				res.DupOrPhantom++ // never acked, yet reachable in-stripe
			} else if int64(j) < cnt && kv.Key != base+uint64(j) {
				res.DupOrPhantom++ // a dup displaced the ordered prefix
			}
		}
	}

	// Recovered steady state, then the structural check.
	if res.RecoveredMops, err = window(recoveredWindow, nil); err != nil {
		return nil, nil, err
	}
	res.ValidateErr = tree.Validate()

	t := bench.NewTable(fmt.Sprintf("TCP fault: factor-2 over %d shermand processes, ms%d SIGKILLed mid-window", numMS, res.Victim),
		"phase", "Mops", "notes")
	t.Addf("steady (factor 2)", fmt.Sprintf("%.3f", res.SteadyMops), "real sockets, wall-clock Mops")
	t.Addf("kill window", fmt.Sprintf("%.3f", res.KillMops),
		fmt.Sprintf("ms%d SIGKILLed %v in: %d chunks failed over, %d lost", res.Victim, killAfter, res.FailedOver, res.LostChunks))
	t.Addf("repair", "-",
		fmt.Sprintf("%d chunks re-replicated in %v; %d under-replicated left", res.RepairedChunks, res.RepairWall.Round(time.Millisecond), res.UnderReplicated))
	valid := "ok"
	if res.ValidateErr != nil {
		valid = res.ValidateErr.Error()
	}
	t.Addf("recovered", fmt.Sprintf("%.3f", res.RecoveredMops),
		fmt.Sprintf("acked writes %d, lost %d, dup/phantom %d; validate %s",
			res.AckedWrites, res.LostAcked, res.DupOrPhantom, valid))
	t.Note("the victim is a real OS process killed with SIGKILL; failover runs inside the detecting verb")
	t.Note("wall-clock throughput is reported, not band-gated — the gate is zero lost acked writes")
	return []*bench.Table{t}, func() error { return tcpFaultGate(res) }, nil
}

// tcpFaultGate is the CI check behind `shermanbench -exp tcpfault -check`:
// the SIGKILLed server must lose zero acknowledged writes (each tracked key
// reachable exactly once), at least one chunk must actually have failed
// over with none lost outright, repair must restore full redundancy on a
// Validate-clean tree, and both fault windows must have made progress.
func tcpFaultGate(r *tcpFaultResult) error {
	if r.AckedWrites == 0 {
		return fmt.Errorf("tcpfault gate: kill window acknowledged no tracked writes")
	}
	if r.LostAcked != 0 {
		return fmt.Errorf("tcpfault gate: %d of %d acked writes lost to the failover", r.LostAcked, r.AckedWrites)
	}
	if r.DupOrPhantom != 0 {
		return fmt.Errorf("tcpfault gate: %d stripe keys not reachable exactly once", r.DupOrPhantom)
	}
	if r.FailedOver == 0 {
		return fmt.Errorf("tcpfault gate: the SIGKILL promoted no chunks (victim empty?)")
	}
	if r.LostChunks != 0 {
		return fmt.Errorf("tcpfault gate: %d chunks lost every copy", r.LostChunks)
	}
	if r.UnderReplicated != 0 {
		return fmt.Errorf("tcpfault gate: %d chunks still under-replicated after repair", r.UnderReplicated)
	}
	if r.ValidateErr != nil {
		return fmt.Errorf("tcpfault gate: tree invalid after repair: %w", r.ValidateErr)
	}
	if r.KillMops <= 0 || r.RecoveredMops <= 0 {
		return fmt.Errorf("tcpfault gate: no progress in the kill or recovered window")
	}
	return nil
}
