package sim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestDefaultParamsValid(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateRejectsBad(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.RTTNS = 0 },
		func(p *Params) { p.NSPerByte = 0 },
		func(p *Params) { p.AtomicBuckets = 0 },
		func(p *Params) { p.OnChipMemBytes = 0 },
		func(p *Params) { p.HostAtomicNS = p.OnChipAtomicNS - 1 },
		func(p *Params) { p.HostAtomicUnitNS = p.OnChipAtomicUnitNS - 1 },
	}
	for i, mod := range cases {
		p := DefaultParams()
		mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPayloadNS(t *testing.T) {
	p := DefaultParams()
	if got := p.PayloadNS(16, 10); got != 10 {
		t.Errorf("small payload should hit floor, got %d", got)
	}
	if got := p.PayloadNS(4096, 10); got != int64(4096*p.NSPerByte) {
		t.Errorf("large payload should be bandwidth-bound, got %d", got)
	}
}

func TestResourceIdleStart(t *testing.T) {
	var r Resource
	if fin := r.Acquire(100, 50); fin != 150 {
		t.Fatalf("idle acquire: got %d want 150", fin)
	}
	// A second arrival inside the busy window claims the banked idle gap
	// [0,100) once, then further arrivals queue at the horizon.
	if fin := r.Acquire(100, 50); fin != 150 {
		t.Fatalf("credited acquire: got %d want 150", fin)
	}
	if fin := r.Acquire(100, 100); fin != 250 {
		t.Fatalf("saturated acquire: got %d want 250", fin)
	}
}

func TestResourceCreditCap(t *testing.T) {
	var r Resource
	// An enormous idle gap banks at most CreditCapNS of credit.
	r.Acquire(100*CreditCapNS, 10)
	claimed := int64(0)
	for {
		fin := r.Acquire(0, 1000)
		if fin != 1000 { // queued at the horizon instead of backfilled
			break
		}
		claimed += 1000
		if claimed > 2*CreditCapNS {
			t.Fatal("credit not capped")
		}
	}
	if claimed > CreditCapNS {
		t.Fatalf("claimed %d exceeds cap %d", claimed, CreditCapNS)
	}
}

func TestResourceBackfill(t *testing.T) {
	var r Resource
	// Leading thread runs far ahead, leaving idle capacity behind.
	r.Acquire(1_000_000, 10)
	// Laggard at t=0 must not queue behind the leader's future.
	if fin := r.Acquire(0, 10); fin != 10 {
		t.Fatalf("backfill: got %d want 10", fin)
	}
}

func TestResourceSaturationQueues(t *testing.T) {
	var r Resource
	// Fill all capacity from time 0.
	var last int64
	for i := 0; i < 100; i++ {
		last = r.Acquire(0, 10)
	}
	if last != 1000 {
		t.Fatalf("expected serialized horizon 1000, got %d", last)
	}
	// A new arrival at t=500 has no idle credit: queues at the horizon.
	if fin := r.Acquire(500, 10); fin != 1010 {
		t.Fatalf("saturated arrival: got %d want 1010", fin)
	}
}

func TestResourcePeek(t *testing.T) {
	var r Resource
	if r.Peek() != 0 {
		t.Fatal("unused resource has a horizon")
	}
	r.Acquire(0, 50)
	r.Acquire(50, 50)
	if h := r.Peek(); h != 100 {
		t.Fatalf("horizon = %d, want 100", h)
	}
}

func TestResourceConcurrent(t *testing.T) {
	var r Resource
	const n = 16
	const each = 1000
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r.Acquire(int64(j), 3)
			}
		}()
	}
	wg.Wait()
	// Total busy time must be conserved regardless of interleaving.
	if got := r.Peek(); got < 3*each { // at least one thread's worth serialized
		t.Fatalf("horizon %d too small", got)
	}
}

func TestResourceMonotoneFinish(t *testing.T) {
	// Property: Acquire never finishes before now+service.
	var r Resource
	f := func(now int64, svc int64) bool {
		if now < 0 {
			now = -now
		}
		svc %= 1000
		if svc < 0 {
			svc = -svc
		}
		fin := r.Acquire(now%1_000_000, svc)
		return fin >= now%1_000_000+svc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Advance(-5) // ignored
	if c.Now() != 10 {
		t.Fatalf("clock = %d want 10", c.Now())
	}
	c.AdvanceTo(5) // backwards ignored
	if c.Now() != 10 {
		t.Fatalf("clock moved backwards: %d", c.Now())
	}
	c.AdvanceTo(20)
	if c.Now() != 20 {
		t.Fatalf("clock = %d want 20", c.Now())
	}
	c.Set(3)
	if c.Now() != 3 {
		t.Fatalf("set failed: %d", c.Now())
	}
}

func TestGatePacing(t *testing.T) {
	g := NewGate(100, 2, 2)
	done := make(chan struct{})
	go func() {
		// Fast worker: runs to t=10000, should block until slow catches up.
		g.Sync(0, 10_000)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("fast worker was not paced")
	default:
	}
	g.Sync(1, 9_900) // slow worker catches up
	<-done
}

func TestGateDoneUnblocks(t *testing.T) {
	g := NewGate(100, 1, 2)
	done := make(chan struct{})
	go func() {
		g.Sync(0, 50_000)
		close(done)
	}()
	g.Done(1) // the laggard finishes; fast worker must not wait on it
	<-done
}
