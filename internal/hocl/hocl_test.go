package hocl

import (
	"runtime"
	"sync"
	"testing"

	"sherman/internal/deploy"
	"sherman/internal/rdma"
	"sherman/internal/sim"
	"sherman/internal/transport"
)

func testFabric(t *testing.T, numMS, numCS int) *rdma.Fabric {
	t.Helper()
	return rdma.NewFabric(sim.DefaultParams(), numMS, numCS)
}

func allModes() []struct {
	name string
	mode Mode
} {
	return []struct {
		name string
		mode Mode
	}{
		{"baseline", Baseline()},
		{"onchip", Mode{OnChip: true}},
		{"local", Mode{OnChip: true, Local: true}},
		{"waitqueue", Mode{OnChip: true, Local: true, WaitQueue: true}},
		{"sherman", Sherman()},
		{"host-hierarchical", Mode{Local: true, WaitQueue: true, Handover: true}},
	}
}

// TestMutualExclusion hammers a handful of locks from many goroutines across
// several compute servers and checks that a plain counter protected by each
// lock never tears, in every mode.
func TestMutualExclusion(t *testing.T) {
	for _, tc := range allModes() {
		t.Run(tc.name, func(t *testing.T) {
			const (
				numCS    = 4
				threads  = 16
				locks    = 3
				opsPerTh = 200
			)
			f := testFabric(t, 2, numCS)
			m := NewManager(f, Config{Mode: tc.mode, LocksPerMS: 64})

			counters := make([]int64, locks) // protected by the locks
			shadow := make([]int64, locks)   // same increments, for comparison
			var shadowMu sync.Mutex

			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					c := f.NewClient(th % numCS)
					for i := 0; i < opsPerTh; i++ {
						idx := (th + i) % locks
						g := m.LockIdx(c, 0, idx)
						// Unprotected read-modify-write: only mutual
						// exclusion keeps it exact.
						v := counters[idx]
						c.Step(10)
						counters[idx] = v + 1
						m.Unlock(c, g, nil, true)
						shadowMu.Lock()
						shadow[idx]++
						shadowMu.Unlock()
					}
				}(th)
			}
			wg.Wait()
			for i := range counters {
				if counters[i] != shadow[i] {
					t.Errorf("lock %d: counter %d, want %d (lost updates)", i, counters[i], shadow[i])
				}
			}
			if got := m.Stats.Acquisitions.Load(); got != int64(threads*opsPerTh) {
				t.Errorf("acquisitions = %d, want %d", got, threads*opsPerTh)
			}
		})
	}
}

// TestVirtualHoldWindowsDisjoint verifies the core virtual-time property of
// the lock simulation: consecutive holders of one lock occupy disjoint
// virtual windows — each holder's acquisition time is at least the previous
// holder's release time.
func TestVirtualHoldWindowsDisjoint(t *testing.T) {
	for _, tc := range allModes() {
		t.Run(tc.name, func(t *testing.T) {
			const (
				numCS   = 4
				threads = 12
				ops     = 150
			)
			f := testFabric(t, 1, numCS)
			m := NewManager(f, Config{Mode: tc.mode, LocksPerMS: 16})

			type window struct{ acq, rel int64 }
			var mu sync.Mutex
			var windows []window

			var wg sync.WaitGroup
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					c := f.NewClient(th % numCS)
					for i := 0; i < ops; i++ {
						g := m.LockIdx(c, 0, 0)
						acq := c.Now()
						c.Step(100)
						rel := c.Now()
						// Record while still holding, so the slice order is
						// the real acquisition order.
						mu.Lock()
						windows = append(windows, window{acq, rel})
						mu.Unlock()
						m.Unlock(c, g, nil, true)
					}
				}(th)
			}
			wg.Wait()

			for i := 1; i < len(windows); i++ {
				if windows[i].acq < windows[i-1].rel {
					t.Fatalf("window %d acquired at %d inside previous hold (released %d)",
						i, windows[i].acq, windows[i-1].rel)
				}
			}
		})
	}
}

// TestHandoverBounded checks that consecutive handovers never exceed
// DefaultMaxHandover, so remote compute servers cannot be starved (§4.3).
func TestHandoverBounded(t *testing.T) {
	f := testFabric(t, 1, 2)
	m := NewManager(f, Config{Mode: Sherman(), LocksPerMS: 16})

	// All threads on CS 0 pound one lock; a lone CS-1 thread must still get
	// in. Track the longest run of consecutive handovers.
	var mu sync.Mutex
	run, maxRun := 0, 0
	var wg sync.WaitGroup
	for th := 0; th < 8; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			cs := 0
			if th == 7 {
				cs = 1
			}
			c := f.NewClient(cs)
			for i := 0; i < 300; i++ {
				g := m.LockIdx(c, 0, 0)
				mu.Lock()
				if g.HandedOver() {
					run++
					if run > maxRun {
						maxRun = run
					}
				} else {
					run = 0
				}
				mu.Unlock()
				c.Step(50)
				m.Unlock(c, g, nil, true)
			}
		}(th)
	}
	wg.Wait()
	if maxRun > DefaultMaxHandover {
		t.Errorf("observed %d consecutive handovers, bound is %d", maxRun, DefaultMaxHandover)
	}
	if m.Stats.Handovers.Load() == 0 {
		t.Error("expected some handovers under same-CS contention")
	}
}

// TestHandoverSkipsRemoteCAS verifies handover saves the remote acquisition:
// handed-over acquisitions do not issue an RDMA_CAS.
func TestHandoverSkipsRemoteCAS(t *testing.T) {
	f := testFabric(t, 1, 1)
	m := NewManager(f, Config{Mode: Sherman(), LocksPerMS: 16})

	const threads, ops = 6, 200
	atomicsBefore := int64(0)
	clients := make([]*rdma.Client, threads)
	for i := range clients {
		clients[i] = f.NewClient(0)
	}
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			c := clients[th]
			for i := 0; i < ops; i++ {
				g := m.LockIdx(c, 0, 0)
				c.Step(20)
				m.Unlock(c, g, nil, true)
			}
		}(th)
	}
	wg.Wait()

	var atomics int64
	for _, c := range clients {
		atomics += c.M.Atomics
	}
	handovers := m.Stats.Handovers.Load()
	total := int64(threads * ops)
	// Every acquisition except handovers issues exactly one successful CAS;
	// retries add more, so atomics >= CAS successes = total - handovers.
	if atomics-atomicsBefore < total-handovers {
		t.Errorf("atomics = %d, want >= %d (total %d - handovers %d)",
			atomics, total-handovers, total, handovers)
	}
	if handovers == 0 {
		t.Error("expected handovers with all threads on one CS")
	}
	// And handovers must genuinely skip CAS: with heavy same-CS contention
	// the per-acquisition atomic rate must be visibly below 1.
	if float64(atomics)/float64(total) > 1.5 {
		t.Errorf("atomics per acquisition = %.2f, suspiciously high", float64(atomics)/float64(total))
	}
}

// TestLockIndexDeterministic checks the address hash is stable and in range.
func TestLockIndexDeterministic(t *testing.T) {
	f := testFabric(t, 2, 1)
	m := NewManager(f, Config{Mode: Sherman(), LocksPerMS: 128})
	a := transport.MakeAddr(1, 0x12340)
	i1 := m.index(a)
	i2 := m.index(a)
	if i1 != i2 {
		t.Fatalf("index not deterministic: %d vs %d", i1, i2)
	}
	if i1 < 0 || i1 >= 128 {
		t.Fatalf("index %d out of range [0,128)", i1)
	}
	// Different addresses should mostly hash differently.
	same := 0
	for off := uint64(0); off < 1024; off += 64 {
		if m.index(transport.MakeAddr(0, 1<<20+off)) == i1 {
			same++
		}
	}
	if same > 3 {
		t.Errorf("suspicious hash clustering: %d/16 collisions with one slot", same)
	}
}

// TestModeValidation rejects inconsistent modes.
func TestModeValidation(t *testing.T) {
	bad := []Mode{
		{WaitQueue: true},                 // WaitQueue without Local
		{Handover: true},                  // Handover without WaitQueue
		{Local: true, Handover: true},     // Handover without WaitQueue
		{WaitQueue: true, Handover: true}, // still missing Local
	}
	for _, mode := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewManager(%+v) did not panic", mode)
				}
			}()
			f := testFabric(t, 1, 1)
			NewManager(f, Config{Mode: mode})
		}()
	}
}

// TestOnChipCapacity ensures lock tables that exceed NIC device memory are
// rejected rather than silently truncated, by both constructors.
func TestOnChipCapacity(t *testing.T) {
	p := sim.DefaultParams()
	p.OnChipMemBytes = 1024 // room for 512 locks only
	cfg := Config{Mode: Mode{OnChip: true}, LocksPerMS: 1024}
	const want = "hocl: 1024 locks need 2048 B on-chip, NIC has 1024 B"
	mustPanic(t, "virtual", want, func() { NewManager(rdma.NewFabric(p, 1, 1), cfg) })
	mustPanic(t, "remote", want, func() {
		NewRemoteManager(cfg, 1, 1, p.OnChipMemBytes, func(uint16) uint64 { return 0 }, deploy.NewFaults(1))
	})
}

// TestHostGLTCapacity ensures both constructors reject a host-memory GLT
// larger than the one chunk each memory server reserves for it.
func TestHostGLTCapacity(t *testing.T) {
	cfg := Config{LocksPerMS: transport.DefaultChunkSize/8 + 1}
	const want = "hocl: host GLT of 1048577 locks exceeds one chunk"
	mustPanic(t, "virtual", want, func() { NewManager(testFabric(t, 1, 1), cfg) })
	mustPanic(t, "remote", want, func() {
		NewRemoteManager(cfg, 1, 1, 0, func(uint16) uint64 { return 0 }, deploy.NewFaults(1))
	})
}

// mustPanic runs build as subtest name and fails it unless build panics
// with the message want.
func mustPanic(t *testing.T, name, want string, build func()) {
	t.Run(name, func(t *testing.T) {
		defer func() {
			if msg, _ := recover().(string); msg != want {
				t.Errorf("panic %q, want %q", msg, want)
			}
		}()
		build()
	})
}

// TestPhysicalLockWord checks the GLT word is physically set while held and
// cleared after release, for host and on-chip tables.
func TestPhysicalLockWord(t *testing.T) {
	for _, onChip := range []bool{false, true} {
		name := "host"
		if onChip {
			name = "onchip"
		}
		t.Run(name, func(t *testing.T) {
			f := testFabric(t, 1, 1)
			m := NewManager(f, Config{Mode: Mode{OnChip: onChip}, LocksPerMS: 16})
			c := f.NewClient(0)
			g := m.LockIdx(c, 0, 3)

			read := func() uint64 {
				var buf [8]byte
				if onChip {
					// Read the containing word from device memory via verb.
					w := transport.MakeOnChipAddr(0, (3*2)&^7)
					c.Read(w, buf[:])
					shift := ((3 * 2) % 8) * 8
					return (le64(buf[:]) >> shift) & 0xffff
				}
				f.Servers()[0].ReadAt(m.gltHostBase[0]+3*8, buf[:])
				return le64(buf[:])
			}
			if got := read(); got != uint64(c.CS.ID)+1 {
				t.Errorf("held lock word = %d, want %d", got, c.CS.ID+1)
			}
			m.Unlock(c, g, nil, true)
			if got := read(); got != 0 {
				t.Errorf("released lock word = %d, want 0", got)
			}
		})
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestWaitQueueFIFO verifies the local wait queue grants in FIFO order
// within one compute server.
func TestWaitQueueFIFO(t *testing.T) {
	f := testFabric(t, 1, 1)
	m := NewManager(f, Config{Mode: Mode{OnChip: true, Local: true, WaitQueue: true}, LocksPerMS: 8})

	// Thread 0 takes the lock and holds it until all others are queued.
	c0 := f.NewClient(0)
	g0 := m.LockIdx(c0, 0, 0)

	const waiters = 5
	var mu sync.Mutex
	var grantOrder []int
	queued := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := f.NewClient(0)
			queued <- i // approximately: the queue push happens inside LockIdx
			g := m.LockIdx(c, 0, 0)
			mu.Lock()
			grantOrder = append(grantOrder, i)
			mu.Unlock()
			m.Unlock(c, g, nil, true)
		}(i)
	}
	// Wait until all waiters have at least started.
	for i := 0; i < waiters; i++ {
		<-queued
	}
	m.Unlock(c0, g0, nil, true)
	wg.Wait()

	if len(grantOrder) != waiters {
		t.Fatalf("granted %d times, want %d", len(grantOrder), waiters)
	}
	// FIFO over the *local queue* order, which is the order LockIdx pushed;
	// goroutine start order approximates it, so we only assert that every
	// waiter got the lock exactly once (no lost or duplicated grants).
	seen := map[int]bool{}
	for _, id := range grantOrder {
		if seen[id] {
			t.Fatalf("waiter %d granted twice", id)
		}
		seen[id] = true
	}
}

// TestContendedLocalWaitsAllocateNothing: four threads of one compute
// server hammer one lock, so most acquisitions queue on the local lock. A
// queued wait recycles its waiter and the queue keeps its backing array, so
// once warm the waits allocate next to nothing; a channel made per wait
// would cost one allocation each.
func TestContendedLocalWaitsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops recycled waiters")
	}
	f := testFabric(t, 1, 1)
	m := NewManager(f, Config{Mode: Sherman(), LocksPerMS: 8})
	const threads = 4
	clients := make([]*rdma.Client, threads)
	for i := range clients {
		clients[i] = f.NewClient(0)
	}
	run := func(ops int) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				release := make([]transport.WriteOp, 0, 1) // room for the release op
				for i := 0; i < ops; i++ {
					g := m.LockIdx(c, 0, 0)
					c.Step(20)
					m.Unlock(c, g, release, true)
				}
			}()
		}
		wg.Wait()
	}
	run(500) // warm the pools and the queue's backing array
	waits0 := m.Stats.LocalWaits.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(2000)
	runtime.ReadMemStats(&after)
	waits := m.Stats.LocalWaits.Load() - waits0
	if waits < 1000 {
		t.Fatalf("only %d local waits in %d acquisitions: not contended", waits, threads*2000)
	}
	if per := float64(after.Mallocs-before.Mallocs) / float64(waits); per > 0.05 {
		t.Fatalf("%d allocations over %d local waits, %.2f per wait", after.Mallocs-before.Mallocs, waits, per)
	}
}
