package hocl

import (
	"runtime"
	"sync"
	"testing"

	"sherman/internal/rdma"
	"sherman/internal/sim"
	"sherman/internal/transport"
)

// installed counts the rows in place.
func (r *rows[T]) installed() int {
	n := 0
	for i := range r.dir {
		if r.dir[i].Load() != nil {
			n++
		}
	}
	return n
}

// rowCounts returns how many rows the manager's slot table and each
// compute server's local table have installed.
func rowCounts(m *Manager) (slots int, local []int) {
	for i := range m.llts {
		local = append(local, m.llts[i].Load().installed())
	}
	return m.slots.installed(), local
}

// capFabric is a simulated fabric of numMS servers with room for six.
func capFabric(numMS, numCS int) *rdma.Fabric {
	return rdma.NewFabricCap(sim.DefaultParams(), numMS, 6, numCS)
}

// TestRowsAllocatedOnFirstUse: a manager over a fabric with capacity for
// six servers allocates no rows up front, and a lock on MS 0 by one compute
// server installs exactly MS 0's slot row and that CS's local row.
func TestRowsAllocatedOnFirstUse(t *testing.T) {
	f := capFabric(2, 2)
	m := NewManager(f, Config{Mode: Sherman()})
	if got := len(m.slots.dir); got != 6 {
		t.Fatalf("slot directory covers %d servers, want the capacity 6", got)
	}
	if s, l := rowCounts(m); s != 0 || l[0] != 0 || l[1] != 0 {
		t.Fatalf("fresh manager: %d slot rows, local rows %v; want none", s, l)
	}
	c := f.NewClient(0)
	g := m.LockIdx(c, 0, 7)
	m.Unlock(c, g, nil, true)
	g = m.Lock(c, transport.MakeAddr(0, 4096))
	m.Unlock(c, g, nil, true)
	s, l := rowCounts(m)
	if s != 1 || l[0] != 1 || l[1] != 0 {
		t.Fatalf("after locks on MS 0 from CS 0: %d slot rows, local rows %v; want 1 and [1 0]", s, l)
	}
	if m.slots.dir[0].Load() == nil || m.llts[0].Load().dir[0].Load() == nil {
		t.Fatal("the installed rows are not MS 0's")
	}
}

// TestRowInstallRace starts 8 threads on 2 compute servers at once on the
// same slot of a server nobody has locked yet: every thread races to install
// the rows. Mutual exclusion must hold (an unsynchronised counter stays
// exact, and -race sees no conflicting access), and one row survives per
// table.
func TestRowInstallRace(t *testing.T) {
	for _, tc := range allModes() {
		t.Run(tc.name, func(t *testing.T) {
			const threads, opsPerTh = 8, 50
			f := capFabric(2, 2)
			m := NewManager(f, Config{Mode: tc.mode})
			var counter int
			start := make(chan struct{})
			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					c := f.NewClient(th % 2)
					<-start
					for i := 0; i < opsPerTh; i++ {
						g := m.LockIdx(c, 1, 11)
						v := counter
						c.Step(10)
						counter = v + 1
						m.Unlock(c, g, nil, true)
					}
				}(th)
			}
			close(start)
			wg.Wait()
			if counter != threads*opsPerTh {
				t.Fatalf("counter %d, want %d (lost updates)", counter, threads*opsPerTh)
			}
			s, l := rowCounts(m)
			if s != 1 || m.slots.dir[1].Load() == nil {
				t.Fatalf("%d slot rows installed, want MS 1's alone", s)
			}
			for cs, n := range l {
				if n != 1 {
					t.Fatalf("CS %d has %d local rows, want 1", cs, n)
				}
			}
		})
	}
}

// TestDeathSweepPartialRows kills a compute server while only MS 0's rows
// exist. The sweep must abort its locally queued thread, orphan the slot it
// holds, and promote the survivor queued on that slot to reclaimer, exactly
// as with tables allocated in full; a row installed after the sweep then
// works normally.
func TestDeathSweepPartialRows(t *testing.T) {
	f := capFabric(2, 2)
	m := NewManager(f, Config{Mode: Sherman()})
	holder := f.NewClient(0)
	_ = m.LockIdx(holder, 0, 3) // held when CS 0 dies

	doomed := make(chan bool, 1)
	go func() {
		c := f.NewClient(0)
		doomed <- lockCrashing(func() { _ = m.LockIdx(c, 0, 3) })
	}()
	reclaimed := make(chan bool, 1)
	go func() {
		c := f.NewClient(1)
		g := m.LockIdx(c, 0, 3)
		reclaimed <- g.Reclaimed()
		m.Unlock(c, g, nil, true)
	}()
	for m.Stats.LocalWaits.Load() == 0 || m.Stats.MaxWaiters.Load() == 0 {
		runtime.Gosched()
	}
	if s, _ := rowCounts(m); s != 1 {
		t.Fatalf("%d slot rows before the kill, want 1", s)
	}
	f.Faults.Kill(0, holder.Now())
	if !<-doomed {
		t.Fatal("the dead CS's locally queued thread did not abort")
	}
	if !<-reclaimed {
		t.Fatal("the survivor queued on the orphaned slot was not promoted to reclaimer")
	}
	if got := m.Stats.LeaseExpiries.Load(); got != 1 {
		t.Fatalf("lease expiries = %d, want 1", got)
	}

	c := f.NewClient(1)
	g := m.LockIdx(c, 1, 3)
	if g.Reclaimed() {
		t.Fatal("a lock on a row installed after the sweep reported reclamation")
	}
	m.Unlock(c, g, nil, true)
	if s, _ := rowCounts(m); s != 2 {
		t.Fatalf("%d slot rows after the lock on MS 1, want 2", s)
	}
}

// TestLockOnAddedServer: a server attached after the manager was built gets
// its rows on its first lock, and the lock works.
func TestLockOnAddedServer(t *testing.T) {
	f := capFabric(1, 1)
	m := NewManager(f, Config{Mode: Sherman()})
	s, err := f.AddServer()
	if err != nil {
		t.Fatal(err)
	}
	c := f.NewClient(0)
	for i := 0; i < 2; i++ {
		g := m.Lock(c, transport.MakeAddr(s.ID, 8192))
		if g.HandedOver() || g.Reclaimed() {
			t.Fatalf("uncontended lock on the new server: handover %v, reclaimed %v", g.HandedOver(), g.Reclaimed())
		}
		m.Unlock(c, g, nil, true)
	}
	if n, l := rowCounts(m); n != 1 || l[0] != 1 || m.slots.dir[s.ID].Load() == nil {
		t.Fatalf("%d slot rows, local rows %v; want the new server's alone", n, l)
	}
}
