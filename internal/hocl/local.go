package hocl

import (
	"runtime"
	"sync"
	"sync/atomic"

	"sherman/internal/transport"
)

// localTable is one compute server's local lock table (LLT): one local lock
// per GLT slot of every memory server (§4.3). It coordinates conflicting
// acquisitions *within* a CS so that at most one thread per CS ever spins on
// the remote lock.
type localTable struct {
	locks []localLock
}

func newLocalTable(n int) *localTable {
	return &localTable{locks: make([]localLock, n)}
}

func (t *localTable) lock(i int) *localLock { return &t.locks[i] }

// localLock is one LLT entry. The mutex only guards the entry's own state;
// waiting happens on per-waiter channels so the FIFO order is explicit and
// the releaser can hand both the virtual release time and the handover flag
// to its successor.
type localLock struct {
	mu    sync.Mutex
	held  bool
	queue []*lwaiter
	depth int32
	// relV is the holder's virtual clock at the most recent release; late
	// spinners inherit it so local waiting consumes virtual time.
	relV int64
}

// lwaiter is one thread queued on a local lock. Every wake path — a
// release, the death sweep — sends it exactly one wake, so once the waiter
// has received it nothing references the lwaiter and its channel is empty:
// it recycles through the manager's pool like a gwaiter.
type lwaiter struct {
	ch chan wake
	// counted: the waiter gave a runnable count up to wait
	// (transport.Parker), so the releaser hands it one before waking it.
	counted bool
}

// wake is the message a releaser passes to the next FIFO waiter.
type wake struct {
	v        int64 // releaser's virtual time
	handover bool  // true: the global lock comes with it
	killed   bool  // the waiter's own compute server died: abort
}

// newLocalWaiter takes a recycled lwaiter from the pool or builds one.
func (m *Manager) newLocalWaiter(counted bool) *lwaiter {
	if v := m.localPool.Get(); v != nil {
		w := v.(*lwaiter)
		w.counted = counted
		return w
	}
	return &lwaiter{ch: make(chan wake, 1), counted: counted}
}

// acquire takes the local lock on behalf of client c, blocking (FIFO when
// the manager has wait queues, barging spin otherwise) until this thread
// holds it. It returns true when the *global* lock was handed over along
// with the local one. Local tables are per compute server, so every thread
// touching l belongs to c's CS; when that CS dies the death sweep (killAll)
// aborts every queued waiter, and the alive checks below keep doomed threads
// from queueing after the sweep or spinning forever on verb-free paths.
//
// A waiting thread posts nothing, so on a transport.Parker it gives its
// runnable count up: a queued waiter gets it back from its releaser, a
// spinner takes it back once it holds the lock.
func (l *localLock) acquire(c transport.Transport, m *Manager) bool {
	l.mu.Lock()
	if !c.Alive() {
		l.mu.Unlock()
		panic(transport.Crash{CS: int(c.CSID())})
	}
	if !l.held {
		l.held = true
		rel := l.relV
		l.mu.Unlock()
		// The previous virtual hold window may extend past our clock even
		// though the lock is free in real time.
		c.AdvanceTo(rel)
		return false
	}
	m.Stats.LocalWaits.Add(1)
	pk, _ := c.(transport.Parker)
	held := pk != nil && pk.Held()
	if m.mode.WaitQueue {
		w := m.newLocalWaiter(held)
		l.queue = append(l.queue, w)
		l.mu.Unlock()
		if pk != nil {
			pk.Park()
		}
		wk := <-w.ch
		if held {
			pk.Take() // counted by the releaser (releaseLocked)
		}
		m.localPool.Put(w) // single wake received; no one else holds w
		if wk.killed {
			panic(transport.Crash{CS: int(c.CSID())})
		}
		// Ownership transferred by the releaser; account the wait.
		c.AdvanceTo(wk.v)
		c.Step(c.Timing().LocalSpinNS)
		return wk.handover
	}
	// No wait queue: unfair local spinning (the "+Hierarchical structure
	// only" configuration of Figure 16).
	l.mu.Unlock()
	if pk != nil {
		pk.Park()
	}
	for {
		c.CheckAlive()
		c.Step(c.Timing().LocalSpinNS)
		runtime.Gosched()
		l.mu.Lock()
		if !l.held {
			l.held = true
			rel := l.relV
			l.mu.Unlock()
			c.AdvanceTo(rel)
			if held {
				pk.Hand()
				pk.Take()
			}
			return false
		}
		l.mu.Unlock()
	}
}

// releaseLocked finishes a release whose decisions were made by the caller
// (Manager.Unlock) while holding l.mu: it records the virtual release time,
// wakes the FIFO successor if any — counting it runnable first when it gave
// a count up to wait — and unlocks the entry. The caller has already flushed
// its dependent RDMA writes, so a woken successor observes fully written
// memory.
func (l *localLock) releaseLocked(c transport.Transport, now int64) {
	l.relV = now
	if len(l.queue) > 0 {
		w := l.queue[0]
		n := copy(l.queue, l.queue[1:]) // keep the backing array: no regrowth
		l.queue[n] = nil
		l.queue = l.queue[:n]
		handover := l.depth > 0 // Manager set depth>0 iff handing over
		l.mu.Unlock()
		if w.counted {
			c.(transport.Parker).Hand() // a manager's threads share one fabric
		}
		w.ch <- wake{v: now, handover: handover}
		return
	}
	l.held = false
	l.mu.Unlock()
}

// newLocalTables builds one table of n locks for each of numCS compute
// servers.
func newLocalTables(numCS, n int) []atomic.Pointer[localTable] {
	t := make([]atomic.Pointer[localTable], numCS)
	for i := range t {
		t[i].Store(newLocalTable(n))
	}
	return t
}

// killAll aborts every queued waiter of the table's compute server after it
// died, so their goroutines unwind instead of blocking forever. The table is
// replaced wholesale on restart (Manager.resetCS). Only the simulator's death
// sweep calls it, and simulated waiters hold no runnable count.
func (t *localTable) killAll() {
	for i := range t.locks {
		l := &t.locks[i]
		l.mu.Lock()
		q := l.queue
		l.queue = nil
		l.mu.Unlock()
		for _, w := range q {
			w.ch <- wake{killed: true}
		}
	}
}
