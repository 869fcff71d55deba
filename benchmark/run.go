package main

import (
	"runtime"
	"sync"
	"time"

	"sherman/internal/core"
	"sherman/internal/stats"
)

// All load is closed loop: a session issues its next operation only after an
// earlier one has completed (at depth > 1, after the oldest of fifoLen open
// futures has), as the paper's client threads do.

// rec collects one session's completions during the timed window, cut into
// slices: every timing metric is computed per slice and reported as the
// median across slices, because whole-window means drift with the sandbox.
type rec struct {
	lat  []int32 // ns: op latency, see session.complete
	vlat []int32 // ns on the session clock; kept on the simulator only
	kind []uint8
	cut  []int // cut[i] = len(lat) when slice i ended
	// Benchmark clock (T) and session clock (V) at the start and end of
	// slice i; a slice starts where the previous one ended unless a
	// mid-window snapshot ran in between.
	beginT, cutT []int64
	beginV, cutV []int64
}

// bounds returns the sample index range of slice i.
func (r *rec) bounds(i int) (lo, hi int) {
	if i > 0 {
		lo = r.cut[i-1]
	}
	return lo, r.cut[i]
}

func clamp32(v int64) int32 {
	return int32(min(max(v, 0), 1<<31-1))
}

// inflight is the bookkeeping of one open future.
type inflight struct {
	p  op
	v0 int64 // session clock just before submit
}

// session is one closed-loop client thread.
type session struct {
	w   *window
	c   client
	gen *generator
	or  *oracle

	rec   rec
	meta  ring[inflight]
	timed bool
	lastT int64 // benchmark clock at the latest completion
	done  bool  // count-sliced windows end on a slice boundary

	// issued counts submitted operations per kind: the denominators of the
	// count metrics, snapshotted with the counters.
	issued        [nKinds]int64
	before, after snapshot
	attempted     int64
	sliceOps      int // count-sliced: operations per slice (0 = time-sliced)

	// Traced run, first session only: recording flips every flipOps
	// completions, so traced and untraced stretches interleave far below
	// the time scale of the sandbox's drift. flipNS/flipOps[0] cover the
	// traced stretches, [1] the untraced; their rates give the overhead.
	flips     bool
	sinceFlip int64
	flipT     int64
	flipNS    [2]int64
	flipOps   [2]int64
}

// flipEvery is the number of completions between recording flips.
const flipEvery = 1000

// flipTrace accounts one completion at benchmark clock t and flips the
// recording when the stretch is over.
func (s *session) flipTrace(t int64) {
	s.sinceFlip++
	if s.sinceFlip < flipEvery {
		return
	}
	on := &s.w.sys.tr.on
	p := 1
	if on.Load() {
		p = 0
	}
	s.flipNS[p] += t - s.flipT
	s.flipOps[p] += s.sinceFlip
	s.flipT, s.sinceFlip = t, 0
	on.Store(p == 1)
}

// snapshot is a session's counters at a window edge.
type snapshot struct {
	c      counters
	issued [nKinds]int64
}

func (s *session) snap() snapshot { return snapshot{c: s.c.counters(), issued: s.issued} }

// window is the state the sessions of one run share.
type window struct {
	sys    *system
	length time.Duration

	warmEnd int64          // time-sliced: when the warm-up ends
	ready   sync.WaitGroup // sessions warmed up, flushed and waiting
	start   chan struct{}  // closed once t0 is set
	t0      int64
	slice   int64 // time-sliced: slice length in ns

	// mid is taken at the end of slice simCountSlices on the simulator; the
	// count metrics cover [before, mid] so they do not depend on how many
	// slices the host managed to run in the window.
	mid     *snapshot
	midG    globals
	midTree core.TreeStats
}

func (s *session) step() {
	p := s.gen.next()
	s.issued[p.kind]++
	s.attempted++
	if s.w.sys.spec.depth == 1 {
		t0 := nanotime()
		r := s.c.do(p)
		t1 := nanotime()
		s.complete(p, r, t1, t1-t0, 0)
		return
	}
	s.meta.push(inflight{p: p, v0: s.c.now()})
	s.c.submit(p)
	if s.meta.n == fifoLen {
		s.harvest()
	}
}

// harvest retires the oldest open future.
func (s *session) harvest() {
	f := s.meta.pop()
	r, doneV := s.c.waitOldest()
	s.complete(f.p, r, nanotime(), doneV-f.v0, doneV-f.v0)
}

// complete judges one finished operation and, inside the window, records it.
// lat is the operation's latency on the host clock — except on the
// simulator, where the session clock is virtual: there the host latency is
// the time since the previous completion (the simulator's cost per simulated
// operation, generator included) and the virtual latency goes to vlat.
func (s *session) complete(p op, r result, t, lat, vlat int64) {
	s.or.check(p, r)
	last := s.lastT
	s.lastT = t
	if !s.timed {
		return
	}
	if s.flips {
		s.flipTrace(t)
	}
	if s.sliceOps > 0 {
		s.rec.lat = append(s.rec.lat, clamp32(t-last))
		s.rec.vlat = append(s.rec.vlat, clamp32(vlat))
		s.rec.kind = append(s.rec.kind, uint8(p.kind))
		if len(s.rec.lat)%s.sliceOps == 0 {
			s.closeSlice(t)
			s.done = t-s.w.t0 >= int64(s.w.length)
		}
		return
	}
	for len(s.rec.cut) < tcpSlices && t >= s.w.t0+int64(len(s.rec.cut)+1)*s.w.slice {
		s.closeSlice(s.w.t0 + int64(len(s.rec.cut)+1)*s.w.slice)
	}
	if len(s.rec.cut) < tcpSlices {
		s.rec.lat = append(s.rec.lat, clamp32(lat))
		s.rec.kind = append(s.rec.kind, uint8(p.kind))
	}
}

// closeSlice ends the current slice at benchmark clock t and starts the next.
func (s *session) closeSlice(t int64) {
	s.rec.cut = append(s.rec.cut, len(s.rec.lat))
	s.rec.cutT = append(s.rec.cutT, t)
	s.rec.cutV = append(s.rec.cutV, s.c.now())
	if s.sliceOps > 0 && len(s.rec.cut) == simCountSlices {
		// One session, so nothing else runs: a safe point for the globals
		// and the tree walk. The next slice starts after them.
		s.c.flush()
		m := s.snap()
		s.w.mid, s.w.midG, s.w.midTree = &m, takeGlobals(s.w.sys), s.w.sys.treeStats()
		now := nanotime()
		s.flipT += now - t
		t, s.lastT = now, now
	}
	s.rec.beginT = append(s.rec.beginT, t)
	s.rec.beginV = append(s.rec.beginV, s.c.now())
}

func (s *session) drain() {
	for s.meta.n > 0 {
		s.harvest()
	}
	s.c.flush()
}

func (s *session) warm() bool {
	if s.sliceOps > 0 {
		return s.attempted >= simWarmOps
	}
	return s.lastT >= s.w.warmEnd
}

func (s *session) drive() {
	s.lastT = nanotime()
	for !s.warm() {
		s.step()
	}
	s.drain()
	s.before = s.snap()
	s.w.ready.Done()
	<-s.w.start

	s.timed, s.lastT, s.flipT = true, s.w.t0, s.w.t0
	s.rec.beginT, s.rec.beginV = append(s.rec.beginT, s.w.t0), append(s.rec.beginV, s.c.now())
	end := s.w.t0 + int64(s.w.length)
	for !s.done && (s.sliceOps > 0 || s.lastT < end) {
		s.step()
	}
	s.timed = false // completions of the drain fall outside every slice
	s.drain()
	s.after = s.snap()
}

// outcome is everything one timed window produced.
type outcome struct {
	sessions []*session
	warmup   time.Duration
	// g0 and g1 are the globals at the window's edges; cnt is the end of the
	// count window (g1 unless the simulator's fixed prefix ended earlier),
	// and cntTree the tree walked at that point (nil: walk it now).
	g0, g1, cnt globals
	cntTree     *core.TreeStats
}

// runWindow warms the system up, runs the timed window on every session and
// returns their records. Globals are read while every session is parked.
func runWindow(sys *system, seed uint64, length time.Duration) outcome {
	sp := sys.spec
	w := &window{sys: sys, length: length, start: make(chan struct{}), slice: int64(length) / tcpSlices}
	gens := newGenerators(sp, seed)
	var out outcome
	for i, c := range sys.clients {
		s := &session{w: w, c: c, gen: gens[i], or: newOracle(), flips: sys.tr != nil && i == 0}
		perSec := 60_000 // completions per session-second, generously; append grows past it
		if sp.fabric == fabricSim {
			s.sliceOps = simSliceOps
			perSec = 600_000
			s.rec.vlat = make([]int32, 0, perSec*int(length/time.Second+1))
		}
		s.rec.lat = make([]int32, 0, perSec*int(length/time.Second+1))
		s.rec.kind = make([]uint8, 0, cap(s.rec.lat))
		out.sessions = append(out.sessions, s)
	}

	phase.Store("warm-up")
	warmStart := nanotime()
	w.warmEnd = warmStart + int64(tcpWarm)
	w.ready.Add(len(out.sessions))
	var wg sync.WaitGroup
	for _, s := range out.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.drive()
		}()
	}
	w.ready.Wait()
	out.warmup = time.Duration(nanotime() - warmStart)

	phase.Store("window")
	runtime.GC() // start every window from the same heap state
	out.g0 = takeGlobals(sys)
	if sys.tr != nil {
		sys.tr.on.Store(true)
	}
	w.t0 = nanotime()
	close(w.start)
	wg.Wait()
	if sys.tr != nil {
		sys.tr.on.Store(false)
	}
	out.g1 = takeGlobals(sys)
	out.cnt = out.g1
	if w.mid != nil {
		out.sessions[0].after, out.cnt, out.cntTree = *w.mid, w.midG, &w.midTree
	}
	return out
}

// globals are the process- and cluster-wide counters read at window edges.
// The core-level ones exist only in the traced run, which owns the core
// tree; the untraced run sees the system through its public API alone.
type globals struct {
	lockAcq, lockHandovers, lockRetries, lockWaits            int64
	cacheEvictions, cacheInvalidations, cacheAdmissionRejects int64
	allocChunks, allocNodes                                   int64
	loads                                                     []stats.MSLoad

	srvTicks, srvRSSKB int64
	selfCPUUS          int64
	mallocs, gcPauseNS uint64
	steal, jiffies     int64
	involCtx           int64
}

func takeGlobals(sys *system) globals {
	var g globals
	g.selfCPUUS, g.involCtx = selfUsage()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	g.mallocs, g.gcPauseNS = ms.Mallocs, ms.PauseTotalNs
	g.steal, g.jiffies = hostCPU()
	if sys.srv != nil {
		for _, pid := range sys.srv.pids() {
			g.srvTicks += cpuTicks(pid)
			g.srvRSSKB += statusField(pid, "VmRSS")
		}
	}
	if sys.ctree == nil {
		return g
	}
	ls := sys.ctree.LockStats()
	g.lockAcq, g.lockHandovers = ls.Acquisitions.Load(), ls.Handovers.Load()
	g.lockRetries, g.lockWaits = ls.GlobalRetries.Load(), ls.LocalWaits.Load()
	for cs := 0; cs < sys.spec.sessions; cs++ {
		c := sys.ctree.Cache(cs)
		g.cacheEvictions += c.Evictions()
		g.cacheInvalidations += c.Invalidations()
		g.cacheAdmissionRejects += c.AdmissionRejects()
	}
	if sys.tcpc != nil {
		g.allocChunks, g.allocNodes = sys.tcpc.AllocStats.Chunks.Load(), sys.tcpc.AllocStats.Nodes.Load()
		g.loads = sys.tcpc.Loads()
	} else {
		g.allocChunks, g.allocNodes = sys.simc.AllocStats.Chunks.Load(), sys.simc.AllocStats.Nodes.Load()
	}
	return g
}
