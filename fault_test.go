package sherman

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sherman/internal/testutil"
)

func faultTree(t *testing.T) (*Cluster, *Tree) {
	t.Helper()
	c := testCluster(t)
	tr := testTree(t, c, DefaultTreeOptions())
	kvs := make([]KV, 500)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(i) + 100}
	}
	if err := tr.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}
	return c, tr
}

func TestKilledSessionReportsErrSessionDead(t *testing.T) {
	c, tr := faultTree(t)
	s, err := tr.SessionAt(1, PipelineDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutE(7, 77); err != nil {
		t.Fatal(err)
	}
	if err := c.KillComputeServer(1); err != nil {
		t.Fatal(err)
	}
	if c.ComputeServerAlive(1) {
		t.Fatal("killed CS reports alive")
	}
	if !s.Dead() {
		t.Fatal("session on killed CS reports alive")
	}
	if r := s.Submit(GetOp(7)).Wait(); !errors.Is(r.Err, ErrSessionDead) {
		t.Fatalf("Submit on dead session: err = %v, want ErrSessionDead", r.Err)
	}
	// Locally-rejected ops keep their known error; fabric-bound ops get
	// ErrSessionDead.
	res := s.Exec([]Op{PutOp(0, 1), GetOp(7)})
	if !errors.Is(res[0].Err, ErrReservedKey) {
		t.Fatalf("Exec reserved-key slot: err = %v, want ErrReservedKey", res[0].Err)
	}
	if !errors.Is(res[1].Err, ErrSessionDead) {
		t.Fatalf("Exec on dead session: err = %v, want ErrSessionDead", res[1].Err)
	}
	if err := s.Flush(); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("Flush on dead session: err = %v, want ErrSessionDead", err)
	}
	if _, _, err := s.GetE(7); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("GetE on dead session: err = %v, want ErrSessionDead", err)
	}

	// Survivors keep serving; the cluster recovers; restart revives the
	// server for new sessions (the old one stays dead).
	surv := openSession(t, tr, 0)
	if v, ok := surv.Get(7); !ok || v != 77 {
		t.Fatalf("acked write lost after crash: (%d,%v)", v, ok)
	}
	if _, err := tr.Recover(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartComputeServer(1); err != nil {
		t.Fatal(err)
	}
	if !s.Dead() {
		t.Fatal("pre-crash session revived by restart")
	}
	fresh := openSession(t, tr, 1)
	fresh.Put(9, 99)
	if v, ok := fresh.Get(9); !ok || v != 99 {
		t.Fatalf("restarted CS session broken: (%d,%v)", v, ok)
	}
}

// TestMidFlightCrashResolvesFutures kills the compute server at a
// seed-varied verb index so operations die at different points of their
// pipelines; every in-flight future must resolve to ErrSessionDead and
// every killed put must be all-or-nothing.
func TestMidFlightCrashResolvesFutures(t *testing.T) {
	testutil.RunSeeds(t, 4, func(t *testing.T, seed uint64) {
		c, tr := faultTree(t)
		s, err := tr.SessionAt(1, PipelineDepth(4))
		if err != nil {
			t.Fatal(err)
		}
		// Kill at a seed-dependent verb index so an operation dies in
		// flight at a different verb each seed.
		if err := c.ScheduleCrash(1, int64(seed)*3+2); err != nil {
			t.Fatal(err)
		}
		if err := c.ScheduleCrash(1, 0); err == nil {
			t.Fatal("ScheduleCrash accepted n=0")
		}
		var last *Future
		for i := 0; i < 10; i++ {
			last = s.Submit(PutOp(uint64(600+i), 1))
		}
		if r := last.Wait(); !errors.Is(r.Err, ErrSessionDead) {
			t.Fatalf("in-flight op resolved to %+v, want ErrSessionDead", r)
		}
		if err := s.Flush(); !errors.Is(err, ErrSessionDead) {
			t.Fatalf("Flush after mid-flight crash: %v, want ErrSessionDead", err)
		}
		// Each killed put was all-or-nothing: present implies the full value.
		surv := openSession(t, tr, 0)
		for i := 0; i < 10; i++ {
			if v, ok := surv.Get(uint64(600 + i)); ok && v != 1 {
				t.Fatalf("torn write: key %d = %d", 600+i, v)
			}
		}
		if _, err := tr.Recover(0); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecoverValidation(t *testing.T) {
	c, tr := faultTree(t)
	if _, err := tr.Recover(-1); !errors.Is(err, ErrBadComputeServer) {
		t.Fatalf("Recover(-1): %v, want ErrBadComputeServer", err)
	}
	if err := c.KillComputeServer(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Recover(1); !errors.Is(err, ErrSessionDead) {
		t.Fatalf("Recover on dead CS: %v, want ErrSessionDead", err)
	}
	rs, err := tr.Recover(0)
	if err != nil {
		t.Fatal(err)
	}
	if rs.VirtualNS <= 0 {
		t.Fatalf("recovery sweep took %d virtual ns, want > 0", rs.VirtualNS)
	}
	if err := c.KillComputeServer(99); !errors.Is(err, ErrBadComputeServer) {
		t.Fatalf("KillComputeServer(99): %v, want ErrBadComputeServer", err)
	}
}

// TestTCPComputeServerCrashMidStream kills one of two compute servers while
// depth-8 sessions on both stream puts and gets over TCP, on interleaved
// keys of the same leaves, so the survivors contend for locks the dead
// threads may hold; then it restarts the server and does it again, three
// rounds. Each round, within crashStreamBound of the kill, the survivors
// must finish their ops and the dead server's sessions must stop with
// ErrSessionDead. A dead thread that kept its runnable count
// (transport.Parker) would hold the count above zero, nobody would write
// the survivors' posted frames, and they would hang; a dead thread queued
// on a local lock whose holder died would wait forever unless the death
// sweep aborts it. A survivor waits out the real 200 ms lease for each
// lock a dead thread held, so a round takes about a second at most.
func TestTCPComputeServerCrashMidStream(t *testing.T) {
	const (
		keys             = 2000
		depth            = 8
		rounds           = 3
		survivors        = 2 // sessions on compute server 0
		victims          = 3 // sessions on compute server 1
		survivorOps      = 1000
		killAfter        = 200 // victim ops completed before the kill
		crashStreamBound = 10 * time.Second
	)
	c, _ := fabricCluster(t, testutil.TCP, 2, 2, 0)
	tr := testTree(t, c, DefaultTreeOptions())
	kvs := make([]KV, keys)
	for i := range kvs {
		kvs[i] = KV{Key: uint64(i + 1), Value: uint64(i + 1)}
	}
	if err := tr.Bulkload(kvs); err != nil {
		t.Fatal(err)
	}

	// Session j owns the keys k with k%n == j, n sessions in all. It
	// records the value of its last put to each key in last.
	const n = survivors + victims
	stream := func(s *Session, j, ops int, seed uint64, last map[uint64]uint64, done func()) (err error) {
		rng := testutil.RNG(seed)
		var window []*Future
		wait := func(f *Future) {
			if r := f.Wait(); r.Err != nil && err == nil {
				err = r.Err
			}
		}
		for i := 0; i < ops && err == nil; i++ {
			k := uint64(n*(1+rng.IntN(keys/n-1)) + j)
			op := GetOp(k)
			if rng.IntN(2) == 0 {
				v := seed<<32 | uint64(i)
				op, last[k] = PutOp(k, v), v
			}
			// Submitting into a full pipeline makes the executor itself
			// wait for its oldest op, parked as a thread of the cluster.
			window = append(window, s.Submit(op))
			if len(window) > depth {
				wait(window[0])
				window = window[1:]
				done()
			}
		}
		for _, f := range window {
			wait(f)
		}
		if err == nil {
			err = s.Flush()
		}
		return err
	}

	survLast := make([]map[uint64]uint64, survivors)
	for j := range survLast {
		survLast[j] = map[uint64]uint64{}
	}
	for r := 0; r < rounds; r++ {
		var victimDone atomic.Int64
		var vwg, swg sync.WaitGroup
		errs := make([]error, n)
		for j := 0; j < n; j++ {
			cs, ops, last, done := 0, survivorOps, map[uint64]uint64{}, func() {}
			if j < survivors {
				last = survLast[j]
			} else {
				cs, ops, done = 1, 1<<30, func() { victimDone.Add(1) }
			}
			s := openSession(t, tr, cs, PipelineDepth(depth))
			wg := &swg
			if cs == 1 {
				wg = &vwg
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[j] = stream(s.Session, j, ops, uint64(r*n+j+1), last, done)
			}()
		}
		for victimDone.Load() < killAfter {
			time.Sleep(time.Millisecond)
		}
		if err := c.KillComputeServer(1); err != nil {
			t.Fatal(err)
		}
		killed := time.Now()
		for _, g := range []struct {
			who string
			wg  *sync.WaitGroup
		}{{"survivor", &swg}, {"victim", &vwg}} {
			finished := make(chan struct{})
			go func() { g.wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(crashStreamBound - time.Since(killed)):
				t.Fatalf("round %d: %s sessions still running %v after the kill", r, g.who, crashStreamBound)
			}
		}
		t.Logf("round %d: every session finished %v after the kill", r, time.Since(killed).Round(time.Millisecond))
		for j, err := range errs {
			switch {
			case j < survivors && err != nil:
				t.Fatalf("round %d: survivor session %d: %v", r, j, err)
			case j >= survivors && !errors.Is(err, ErrSessionDead):
				t.Fatalf("round %d: victim session %d: err = %v, want ErrSessionDead", r, j, err)
			}
		}
		if err := c.RestartComputeServer(1); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := tr.Recover(0); err != nil {
		t.Fatal(err)
	}
	check := openSession(t, tr, 0)
	for j, last := range survLast {
		for k, want := range last {
			if v, ok, err := check.GetE(k); err != nil || !ok || v != want {
				t.Fatalf("survivor %d's acked put of key %d: got (%#x,%v,%v), want %#x", j, k, v, ok, err, want)
			}
		}
	}
}
