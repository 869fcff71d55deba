package sim

import "sync"

// Resource models one contended hardware unit — a NIC processing pipeline,
// one in-NIC atomic bucket, a memory thread core — as a service clock with
// idle-credit backfill.
//
// Threads charge service time against the resource at their own virtual
// "now". Because worker goroutines execute at unrelated real-time rates,
// arrivals reach the resource out of virtual-time order; a naive
// max(now, clock) rule would make one thread's virtual future queue every
// lagging thread behind phantom work, serializing the simulation. Instead
// the resource tracks how much of its past was actually busy: a request
// arriving "in the past" (now < clock) is backfilled into recorded idle
// capacity when any exists, and queues at the clock only when the resource
// has been genuinely saturated. Saturated resources therefore produce real
// queueing delay (hot atomic buckets, NIC pipelines at full IOPS) while idle
// resources never penalize out-of-order arrivals.
type Resource struct {
	mu     sync.Mutex
	clock  int64 // virtual time up to which committed work extends
	credit int64 // recent idle capacity claimable by out-of-order arrivals
}

// CreditCapNS bounds how much recorded idle capacity an out-of-order arrival
// can claim. Worker pacing (Gate) keeps thread clocks within a few tens of
// microseconds of each other, so idle time older than that can never belong
// to a legitimately concurrent request; capping the credit prevents a burst
// from borrowing capacity out of the distant past.
const CreditCapNS = 50_000

// Acquire charges service virtual-nanoseconds starting no earlier than now
// and returns the virtual completion time. The caller's clock should advance
// to at least the returned value (plus any propagation latency).
func (r *Resource) Acquire(now, service int64) int64 {
	if service < 0 {
		service = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if now >= r.clock {
		// The resource is idle at the caller's time: start immediately and
		// bank the idle gap (up to the cap) for out-of-order laggards.
		r.credit += now - r.clock
		if r.credit > CreditCapNS {
			r.credit = CreditCapNS
		}
		r.clock = now + service
		return r.clock
	}
	if r.credit >= service {
		// Out-of-order arrival, but the resource had recent spare capacity:
		// backfill without moving the committed horizon.
		r.credit -= service
		return now + service
	}
	// Genuinely saturated: queue at the committed horizon.
	r.clock += service
	return r.clock
}

// Peek returns the resource's committed-work horizon.
func (r *Resource) Peek() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// Clock is a per-thread virtual clock. It is owned by exactly one goroutine
// and therefore needs no synchronization for its own advancement; other
// goroutines may observe it only through explicit copies (e.g. the release
// timestamps handed through local lock queues).
type Clock struct {
	now int64
}

// Now returns the thread's current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock forward by d nanoseconds (d may be zero; negative
// values are ignored so that stale resource estimates can never move a
// thread backwards).
func (c *Clock) Advance(d int64) {
	if d > 0 {
		c.now += d
	}
}

// AdvanceTo moves the clock to t if t is later than the current time. It is
// used when a thread inherits a completion or release timestamp from a
// resource or another thread.
func (c *Clock) AdvanceTo(t int64) {
	if t > c.now {
		c.now = t
	}
}

// Set forces the clock to t. Used when (re)initializing worker threads at a
// common experiment start time.
func (c *Clock) Set(t int64) { c.now = t }
