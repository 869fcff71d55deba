package main

import (
	"fmt"
	"slices"
	"time"

	"sherman/internal/bench"
	"sherman/internal/transport"
	"sherman/internal/transport/tcp"
)

// runTCPPipe is the -exp tcppipe experiment: real-socket pipelining against
// 3 shermand processes, measured at the transport itself: a depth sweep
// (1/2/4/8) of pipelined leaf-sized read verbs through the multiplexed
// connections' async post/complete path (ReadAsync/Await — exactly what the
// pipelined executor drives). The gate counts what pipelining is for: at
// depth 8 a window of posted frames must leave the client in one write
// syscall and its answers must leave the server in one (frames per write on
// both ends, a count that repeats on any host), and that coalescing must
// still buy wall-clock time (depth-8 us/verb at most depth-1's / 1.5 — a
// modest ratio, because a depth-1 verb is one park per round trip and has
// little waste left to amortize). An ungated row beside the sweep times a
// lockstep raw-frame READ round trip (its own connection, one writeFrame
// then one readFrame, as the heartbeat pings) against the depth-1 verb
// through the mux, on the same shermand: the gap is the mux's own share of
// a depth-1 round trip. End-to-end session timing over TCP is the benchmark
// module's job (BENCHMARK.json's tcp-* workloads).

const (
	tpNumMS = 3
	tpReps  = 3 // timed repetitions per depth; best rep is reported

	tpVerbOps   = 20000 // pipelined read verbs per depth per rep
	tpVerbSize  = 1024  // one default-node-sized read
	tpVerbSlots = 64    // distinct seeded offsets per server
)

var tpDepths = []int{1, 2, 4, 8}

// The lockstep row: tpLockstepReps alternating blocks of tpLockstepOps
// round trips per path, so drift hits both paths alike.
const (
	tpLockstepOps  = 2000
	tpLockstepReps = 5
)

// The gate's floors. Frames per write at depth 8 measured 8.0 on both ends
// (the whole window leaves, and is answered, in one syscall); the floor is
// half of that.
const (
	tpMinFramesPerWrite = 4.0
	tpMinDepthSpeedup   = 1.5
)

// tcpPipeResult is the outcome tcpPipeGate checks: per-depth pipelined verb
// throughput and the frames each end put into one write syscall.
type tcpPipeResult struct {
	VerbMops             map[int]float64
	ClientFramesPerWrite map[int]float64
	ServerFramesPerWrite map[int]float64

	// LockstepP50 and MuxP50 are the ungated row's median round trips:
	// a raw frame in lockstep, and a depth-1 verb through the mux.
	LockstepP50, MuxP50 time.Duration
}

// tpVerbStream drives tpVerbOps pipelined read verbs at base's server
// through the transport's AsyncVerbs path: a window of depth in-flight reads,
// retiring the oldest before each post, exactly the post/complete pattern
// the real executor uses.
func tpVerbStream(av transport.AsyncVerbs, base transport.Addr, pend []transport.Pending, bufs [][]byte) {
	depth := len(pend)
	for i := 0; i < tpVerbOps; i++ {
		slot := i % depth
		if i >= depth {
			av.Await(pend[slot])
		}
		pend[slot] = av.ReadAsync(base.Add(uint64((i*7)%tpVerbSlots)*tpVerbSize), bufs[slot])
	}
	for s := 0; s < depth && s < tpVerbOps; s++ {
		av.Await(pend[s])
	}
}

// tpClient is one client cluster over the servers under test, with one
// seeded chunk per server. A server accepts one client cluster only, so
// every measurement against it runs through the same tpClient.
type tpClient struct {
	cl    *tcp.Cluster
	tr    transport.Transport
	av    transport.AsyncVerbs
	bases []transport.Addr
}

func tpDial(endpoints []string) (*tpClient, error) {
	cl, err := tcp.NewCluster(endpoints, 1, tcp.Options{})
	if err != nil {
		return nil, fmt.Errorf("tcppipe: dial: %w", err)
	}
	tr := cl.NewTransport(0)
	av, ok := tr.(transport.AsyncVerbs)
	if !ok {
		cl.Close()
		return nil, fmt.Errorf("tcppipe: tcp transport does not implement AsyncVerbs")
	}
	// One chunk per server, seeded with leaf-sized records so the reads
	// move real bytes.
	bases := make([]transport.Addr, len(endpoints))
	seed := make([]byte, tpVerbSize)
	for ms := range bases {
		bases[ms] = transport.MakeAddr(uint16(ms), tr.GrowChunk(uint16(ms)))
		for s := 0; s < tpVerbSlots; s++ {
			for i := range seed {
				seed[i] = byte(ms + s + i)
			}
			tr.Write(bases[ms].Add(uint64(s*tpVerbSize)), seed)
		}
	}
	return &tpClient{cl: cl, tr: tr, av: av, bases: bases}, nil
}

// tpVerbSweep runs the depth sweep of tpVerbStream against every server of
// c and returns, per depth, the best-of-tpReps throughput and the frames
// per write syscall that wire's counters saw over the depth's streams; a
// nil wire counts the client's end of the connections.
func (c *tpClient) tpVerbSweep(wire func() []tcp.WireStats) (mops, framesPerWrite map[int]float64) {
	if wire == nil {
		wire = c.cl.WireStats
	}
	sent := func() (frames, writes int64) {
		for _, w := range wire() {
			frames += w.Frames
			writes += w.Writes
		}
		return frames, writes
	}
	// The window under test is the per-MS multiplexed connection's: depth-N
	// keeps N verbs in flight per memory server. Each shermand is streamed
	// in turn with a full depth-deep window on its connection (round-robin
	// would dilute the per-connection depth to depth/numMS), and the depth's
	// throughput aggregates all the servers' streams.
	mops, framesPerWrite = make(map[int]float64), make(map[int]float64)
	for _, depth := range tpDepths {
		pend := make([]transport.Pending, depth)
		bufs := make([][]byte, depth)
		for i := range bufs {
			bufs[i] = make([]byte, tpVerbSize)
		}
		f0, w0 := sent()
		var best float64
		for rep := 0; rep < tpReps; rep++ {
			start := time.Now()
			for _, base := range c.bases {
				tpVerbStream(c.av, base, pend, bufs)
			}
			if m := float64(len(c.bases)*tpVerbOps) / time.Since(start).Seconds() / 1e6; m > best {
				best = m
			}
		}
		f1, w1 := sent()
		mops[depth] = best
		framesPerWrite[depth] = float64(f1-f0) / float64(w1-w0)
	}
	return mops, framesPerWrite
}

// tpLockstep times, in alternating blocks, a lockstep raw-frame READ round
// trip (tcp.LockstepRead, on a connection of its own) and a depth-1 READ
// through the mux, both of tpVerbSize bytes at the same address of memory
// server 0 at endpoint, and returns each path's median.
func (c *tpClient) tpLockstep(endpoint string) (raw, mux time.Duration, err error) {
	buf := make([]byte, tpVerbSize)
	var raws, muxes []time.Duration
	for rep := 0; rep < tpLockstepReps; rep++ {
		rtts, err := tcp.LockstepRead(endpoint, c.bases[0], tpVerbSize, tpLockstepOps)
		if err != nil {
			return 0, 0, fmt.Errorf("tcppipe: lockstep read: %w", err)
		}
		raws = append(raws, rtts...)
		for i := 0; i < tpLockstepOps; i++ {
			start := time.Now()
			c.tr.Read(c.bases[0], buf)
			muxes = append(muxes, time.Since(start))
		}
	}
	return median(raws), median(muxes), nil
}

func median(d []time.Duration) time.Duration {
	slices.Sort(d)
	return d[len(d)/2]
}

// tpServerCoalescing repeats the verb sweep against in-process servers —
// the same serving code shermand wraps, but with its counters in reach — and
// returns the reply frames the servers put into each write syscall, per
// depth.
func tpServerCoalescing() (map[int]float64, error) {
	srvs := make([]*tcp.Server, tpNumMS)
	endpoints := make([]string, tpNumMS)
	for i := range srvs {
		srv, err := tcp.NewServer("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("tcppipe: in-process server: %w", err)
		}
		go srv.Serve()
		defer srv.Close()
		srvs[i], endpoints[i] = srv, srv.Addr()
	}
	c, err := tpDial(endpoints)
	if err != nil {
		return nil, err
	}
	defer c.cl.Close()
	_, res := c.tpVerbSweep(func() []tcp.WireStats {
		ws := make([]tcp.WireStats, len(srvs))
		for i, srv := range srvs {
			ws[i] = srv.WireStats()
		}
		return ws
	})
	return res, nil
}

func runTCPPipe(_ bench.Scale, col *bench.Collector) ([]*bench.Table, func() error, error) {
	// Pipelined read verbs through the multiplexed transport, timed against
	// real shermand processes, then counted on both ends.
	res := &tcpPipeResult{}
	ls, err := tcp.LaunchLocal(tpNumMS)
	if err != nil {
		return nil, nil, fmt.Errorf("tcppipe: launch: %w", err)
	}
	c, err := tpDial(ls.Endpoints)
	if err == nil {
		res.VerbMops, res.ClientFramesPerWrite = c.tpVerbSweep(nil)
		res.LockstepP50, res.MuxP50, err = c.tpLockstep(ls.Endpoints[0])
		c.cl.Close()
	}
	ls.Stop()
	if err != nil {
		return nil, nil, err
	}
	if res.ServerFramesPerWrite, err = tpServerCoalescing(); err != nil {
		return nil, nil, err
	}

	vt := bench.NewTable(fmt.Sprintf("TCP pipelined read verbs: depth sweep over %d shermand processes (the -check gate)", tpNumMS),
		"depth", "read verbs Mops", "us/verb", "vs depth-1", "client frames/write", "server frames/write")
	for _, d := range tpDepths {
		vt.Addf(fmt.Sprintf("%d", d),
			fmt.Sprintf("%.3f", res.VerbMops[d]),
			fmt.Sprintf("%.1f", 1/res.VerbMops[d]),
			fmt.Sprintf("%.2fx", res.VerbMops[d]/res.VerbMops[1]),
			fmt.Sprintf("%.2f", res.ClientFramesPerWrite[d]),
			fmt.Sprintf("%.2f", res.ServerFramesPerWrite[d]))
		col.Add(bench.Metric{Exp: "tcppipe", Name: fmt.Sprintf("tcppipe/verb_read_d%d", d),
			Mops: res.VerbMops[d], KopsPerThread: res.VerbMops[d] * 1e3})
	}
	vt.Note("%d-byte reads through ReadAsync/Await with a window of depth in flight; best of %d reps", tpVerbSize, tpReps)
	vt.Note("frames/write: frames sent per write syscall; the server column is a second, in-process pass (same serving code as shermand, counters in reach)")
	vt.Note("gate: depth-8 frames/write >= %.0f on both ends, depth-8 us/verb <= depth-1 / %.1f (measured %.1f vs %.1f us/verb, %.2fx)",
		tpMinFramesPerWrite, tpMinDepthSpeedup, 1/res.VerbMops[8], 1/res.VerbMops[1], res.VerbMops[8]/res.VerbMops[1])

	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	lt := bench.NewTable("TCP depth-1 round trip: lockstep raw frame vs the mux verb, same shermand (ungated)",
		"path", "p50 us/round trip")
	lt.Addf("raw frame, lockstep (own connection)", fmt.Sprintf("%.1f", us(res.LockstepP50)))
	lt.Addf("mux verb, depth 1", fmt.Sprintf("%.1f", us(res.MuxP50)))
	lt.Addf("the mux's share", fmt.Sprintf("%.1f", us(res.MuxP50-res.LockstepP50)))
	lt.Note("%d-byte READs of one address; %d alternating blocks of %d round trips per path", tpVerbSize, tpLockstepReps, tpLockstepOps)
	lt.Note("raw: one writeFrame, then one readFrame, as the heartbeat pings; mux: Transport.Read (post, write, park on the slot, wake)")
	col.Add(bench.Metric{Exp: "tcppipe", Name: "tcppipe/lockstep_read_d1", Mops: 1 / us(res.LockstepP50), P50NS: res.LockstepP50.Nanoseconds()})
	col.Add(bench.Metric{Exp: "tcppipe", Name: "tcppipe/mux_read_d1", Mops: 1 / us(res.MuxP50), P50NS: res.MuxP50.Nanoseconds()})

	return []*bench.Table{vt, lt}, func() error { return tcpPipeGate(res) }, nil
}

// tcpPipeGate is the CI check behind `shermanbench -exp tcppipe -check`:
// pipelining must do what it is for, counted and timed. Counted: at depth 8
// each end puts at least tpMinFramesPerWrite frames into one write syscall —
// host-independent, and exactly what a lost coalescing path would break.
// Timed: that must still buy wall-clock, depth-8 us/verb at most depth-1's
// / tpMinDepthSpeedup; the ratio divides out host speed, and it is modest
// because the depth-1 verb it divides by has no hand-offs left to amortize.
func tcpPipeGate(r *tcpPipeResult) error {
	d1, d8 := r.VerbMops[1], r.VerbMops[8]
	if d1 <= 0 || d8 <= 0 {
		return fmt.Errorf("tcppipe gate: missing verb depth rows (d1=%.3f d8=%.3f)", d1, d8)
	}
	if c, s := r.ClientFramesPerWrite[8], r.ServerFramesPerWrite[8]; c < tpMinFramesPerWrite || s < tpMinFramesPerWrite {
		return fmt.Errorf("tcppipe gate: depth-8 frames per write syscall: client %.2f, server %.2f, want >= %.0f on both",
			c, s, tpMinFramesPerWrite)
	}
	if d8 < tpMinDepthSpeedup*d1 {
		return fmt.Errorf("tcppipe gate: depth-8 read verbs take %.1f us/verb, depth-1 %.1f us/verb: only %.2fx, want >= %.1fx",
			1/d8, 1/d1, d8/d1, tpMinDepthSpeedup)
	}
	return nil
}
