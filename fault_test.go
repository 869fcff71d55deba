package sherman

import (
	"errors"
	"testing"

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
