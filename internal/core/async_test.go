package core_test

import (
	"testing"

	"sherman/internal/cluster"
	core "sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/testutil"
	"sherman/internal/workload"
)

// asyncTestTree builds a bulkloaded tree with n keys (key i+1 -> i+1) and
// one handle, caches warmed.
func asyncTestTree(t *testing.T, n int) (*core.Tree, *core.Handle) {
	t.Helper()
	cl := cluster.New(cluster.Config{NumMS: 4, NumCS: 1})
	tr := core.New(cl, core.ShermanConfig())
	kvs := make([]layout.KV, n)
	for i := range kvs {
		kvs[i] = layout.KV{Key: uint64(i + 1), Value: uint64(i + 1)}
	}
	tr.Bulkload(kvs)
	h := tr.NewHandle(0, 0)
	for k := uint64(1); k <= uint64(n); k += 61 {
		h.Lookup(k)
	}
	return tr, h
}

// submitted is one op left outstanding in the window, with the result the
// sequential reference gave for it, checked when its Pending is waited on.
type submitted struct {
	op   core.Op
	want core.OpResult
	p    core.Pending
}

// TestAsyncOverlapsIndependentOps: the acceptance criterion at unit scale —
// a depth-4 pipeline must execute independent gets in well under the
// sequential virtual time, with a measured hiding ratio above 1.5x.
func TestAsyncOverlapsIndependentOps(t *testing.T) {
	const n = 50_000
	const ops = 500
	span := func(depth int) (int64, *core.Handle) {
		_, h := asyncTestTree(t, n)
		a := h.NewAsync(depth)
		defer a.Close()
		t0 := h.C.Now()
		key := uint64(7)
		for i := 0; i < ops; i++ {
			key = key*6364136223846793005 + 1442695040888963407
			a.SubmitOp(core.Op{Kind: stats.OpLookup, Key: key%n + 1})
		}
		a.Flush()
		return h.C.Now() - t0, h
	}
	seq, _ := span(1)
	pipe, h := span(4)
	if pipe*2 >= seq {
		t.Errorf("depth-4 span %d not under half the sequential span %d", pipe, seq)
	}
	if hr := h.Rec.HidingRatio(); hr <= 1.5 {
		t.Errorf("depth-4 hiding ratio %.2f, want > 1.5", hr)
	}
	if h.Rec.PipelinedOps != ops {
		t.Errorf("PipelinedOps = %d, want %d", h.Rec.PipelinedOps, ops)
	}
	if mean := h.Rec.PipelineDepths.Mean(); mean < 3 {
		t.Errorf("mean outstanding depth %.2f, want close to 4", mean)
	}
}

// TestAsyncSameKeyOrdering: dependent operations must not overlap — a get
// of key k starts after an outstanding put to k completes (and returns its
// value), and a put after an outstanding get starts after the get.
func TestAsyncSameKeyOrdering(t *testing.T) {
	_, h := asyncTestTree(t, 10_000)
	a := h.NewAsync(8)
	defer a.Close()

	// put(k) then get(k): the get must see the put's value and complete
	// after it.
	putDone := a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: 42, Value: 9999}).Done()
	res, getDone := a.SubmitOp(core.Op{Kind: stats.OpLookup, Key: 42}).Wait()
	if !res.Found || res.Value != 9999 {
		t.Fatalf("pipelined get after put = (%d,%v), want (9999,true)", res.Value, res.Found)
	}
	if getDone <= putDone {
		t.Errorf("dependent get completed at %d, not after its put at %d", getDone, putDone)
	}

	// get(k) then put(k): the later put must not virtually complete before
	// the read it would otherwise clobber.
	rDone := a.SubmitOp(core.Op{Kind: stats.OpLookup, Key: 77}).Done()
	wDone := a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: 77, Value: 1}).Done()
	if wDone <= rDone {
		t.Errorf("write-after-read completed at %d, not after the read at %d", wDone, rDone)
	}

	// Independent keys do overlap: with 8 lanes, two fresh gets on cold
	// keys complete within one RTT of each other in either order.
	a.Flush()
	d1 := a.SubmitOp(core.Op{Kind: stats.OpLookup, Key: 101}).Done()
	d2 := a.SubmitOp(core.Op{Kind: stats.OpLookup, Key: 5003}).Done()
	gap := d2 - d1
	if gap < 0 {
		gap = -gap
	}
	if gap > h.Timing().RTTNS {
		t.Errorf("independent gets completed %d ns apart, want overlap (< 1 RTT)", gap)
	}
}

// TestAsyncScanBarrier: a scan orders after every outstanding write and
// bars later writes until it completes, so pipelined streams stay
// observably sequential around range queries.
func TestAsyncScanBarrier(t *testing.T) {
	_, h := asyncTestTree(t, 10_000)
	a := h.NewAsync(8)
	defer a.Close()

	var writeDones []int64
	for i := uint64(0); i < 4; i++ {
		writeDones = append(writeDones, a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: 2000 + i, Value: 1}).Done())
	}
	scan := a.SubmitOp(core.Op{Kind: stats.OpRange, Key: 1999, Span: 8})
	// A write submitted behind the outstanding scan must not complete
	// under it.
	wDone := a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: 2500, Value: 1}).Done()
	res, scanDone := scan.Wait()
	for _, d := range writeDones {
		if scanDone <= d {
			t.Errorf("scan completed at %d, before an outstanding write at %d", scanDone, d)
		}
	}
	// The scan sees all four writes (sequential semantics).
	found := 0
	for _, kv := range res.KVs {
		if kv.Key >= 2000 && kv.Key < 2004 {
			found++
		}
	}
	if found != 4 {
		t.Errorf("scan observed %d of the 4 writes submitted before it", found)
	}
	if wDone <= scanDone {
		t.Errorf("write after scan completed at %d, before the scan at %d", wDone, scanDone)
	}
}

// TestAsyncDepth1MatchesSync: a depth-1 executor is the synchronous client —
// identical results, clock advance, and round-trip counts, no pipeline
// metrics.
func TestAsyncDepth1MatchesSync(t *testing.T) {
	_, hs := asyncTestTree(t, 10_000)
	_, ha := asyncTestTree(t, 10_000)
	a := ha.NewAsync(1)
	defer a.Close()

	s0, a0 := hs.C.Now(), ha.C.Now()
	srt, art := hs.Metrics().RoundTrips, ha.Metrics().RoundTrips
	keys := []uint64{5, 500, 5000, 9999, 123, 456}
	for _, k := range keys {
		hs.Insert(k, k*3)
		a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: k, Value: k * 3})
	}
	for _, k := range keys {
		wv, wok := hs.Lookup(k)
		r, _ := a.SubmitOp(core.Op{Kind: stats.OpLookup, Key: k}).Wait()
		if r.Found != wok || r.Value != wv {
			t.Errorf("depth-1 SubmitOp lookup(%d) = (%d,%v), sync (%d,%v)", k, r.Value, r.Found, wv, wok)
		}
	}
	a.Flush()
	if sd, ad := hs.C.Now()-s0, ha.C.Now()-a0; sd != ad {
		t.Errorf("depth-1 pipeline consumed %d virtual ns, sync path %d", ad, sd)
	}
	if sr, ar := hs.Metrics().RoundTrips-srt, ha.Metrics().RoundTrips-art; sr != ar {
		t.Errorf("depth-1 pipeline used %d round trips, sync path %d", ar, sr)
	}
	if ha.Rec.PipelinedOps != 0 {
		t.Errorf("depth-1 executor recorded %d pipelined ops, want 0", ha.Rec.PipelinedOps)
	}
}

// TestAsyncExecOverlapsGroups: Async.Exec pipelines the planner's leaf
// groups, so a scattered batch completes in less virtual time at depth 4
// than at depth 1 while returning identical results.
func TestAsyncExecOverlapsGroups(t *testing.T) {
	const n = 50_000
	run := func(depth int) (int64, []core.OpResult) {
		_, h := asyncTestTree(t, n)
		a := h.NewAsync(depth)
		defer a.Close()
		var ops []core.Op
		key := uint64(3)
		for i := 0; i < 64; i++ {
			key = key*6364136223846793005 + 1442695040888963407
			k := key%n + 1
			if i%3 == 0 {
				ops = append(ops, core.Op{Kind: stats.OpInsert, Key: k, Value: k * 7})
			} else {
				ops = append(ops, core.Op{Kind: stats.OpLookup, Key: k})
			}
		}
		t0 := h.C.Now()
		res := a.Exec(ops)
		return h.C.Now() - t0, res
	}
	seqSpan, seqRes := run(1)
	pipeSpan, pipeRes := run(4)
	for i := range seqRes {
		if seqRes[i].Found != pipeRes[i].Found || seqRes[i].Value != pipeRes[i].Value {
			t.Fatalf("Exec result %d differs: depth1 %+v, depth4 %+v", i, seqRes[i], pipeRes[i])
		}
	}
	if pipeSpan >= seqSpan {
		t.Errorf("depth-4 Exec span %d not under depth-1 span %d", pipeSpan, seqSpan)
	}
}

// TestAsyncMixedChurnEquivalence: a long pipelined stream of mixed ops at
// several depths — including inserts that split small leaves mid-pipeline
// and interleaved deletes — stays observably equivalent to the sequential
// path, and the tree stays valid.
func TestAsyncMixedChurnEquivalence(t *testing.T) {
	for _, mode := range []layout.Mode{layout.TwoLevel, layout.Checksum} {
		for _, depth := range []int{2, 4, 8} {
			cfg := core.ShermanConfig()
			if mode == layout.Checksum {
				cfg = core.FGPlusConfig()
			}
			cfg.Format = testutil.SmallFormat(mode)
			seqTree := core.New(cluster.New(cluster.Config{NumMS: 2, NumCS: 1}), cfg)
			pipeTree := core.New(cluster.New(cluster.Config{NumMS: 2, NumCS: 1}), cfg)
			seqH := seqTree.NewHandle(0, 0)
			pipeH := pipeTree.NewHandle(0, 0)
			a := pipeH.NewAsync(depth)
			defer a.Close()

			// Results are checked as the window retires them, depth ops
			// behind submission, so the stream stays pipelined.
			var fifo []submitted
			check := func(s submitted) {
				got, _ := s.p.Wait()
				if got.Found != s.want.Found || got.Value != s.want.Value || len(got.KVs) != len(s.want.KVs) {
					t.Fatalf("%v depth %d: %+v = (%d,%v,%d rows), sequential (%d,%v,%d rows)", mode, depth, s.op,
						got.Value, got.Found, len(got.KVs), s.want.Value, s.want.Found, len(s.want.KVs))
				}
				for j := range s.want.KVs {
					if got.KVs[j] != s.want.KVs[j] {
						t.Fatalf("%v depth %d: %+v row %d = %+v, sequential %+v",
							mode, depth, s.op, j, got.KVs[j], s.want.KVs[j])
					}
				}
			}

			const keySpace = 300
			key := uint64(mode)*17 + uint64(depth)
			for i := 0; i < 1200; i++ {
				key = key*6364136223846793005 + 1442695040888963407
				op := core.Op{Key: key%keySpace + 1}
				var want core.OpResult
				switch key % 5 {
				case 0, 1:
					op.Kind, op.Value = stats.OpInsert, key|1
					seqH.Insert(op.Key, op.Value)
				case 2:
					op.Kind = stats.OpDelete
					want.Found = seqH.Delete(op.Key)
				case 3:
					op.Kind = stats.OpLookup
					want.Value, want.Found = seqH.Lookup(op.Key)
				default:
					op.Kind, op.Span = stats.OpRange, 7
					want.KVs = seqH.Range(op.Key, op.Span)
				}
				fifo = append(fifo, submitted{op, want, a.SubmitOp(op)})
				if len(fifo) > depth {
					check(fifo[0])
					fifo = fifo[1:]
				}
			}
			for _, s := range fifo {
				check(s)
			}
			a.Flush()
			for k := uint64(1); k <= keySpace; k++ {
				wv, wok := seqH.Lookup(k)
				gv, gok := pipeH.Lookup(k)
				if wok != gok || (wok && wv != gv) {
					t.Fatalf("%v depth %d: final key %d = (%d,%v), sequential (%d,%v)", mode, depth, k, gv, gok, wv, wok)
				}
			}
			if err := pipeTree.Validate(); err != nil {
				t.Fatalf("%v depth %d: validate: %v", mode, depth, err)
			}
		}
	}
}

// pipelineGolden is the simulated outcome of goldenStream at one depth.
type pipelineGolden struct {
	clock      int64   // final driver clock
	pipelined  int64   // Recorder.PipelinedOps
	meanDepth  float64 // Recorder.PipelineDepths.Mean()
	hiding     float64 // Recorder.HidingRatio()
	roundTrips int64
	meanLatNS  float64 // Recorder.AllLatency.Mean(): issue-to-completion
}

// goldenStream drives a fixed-seed 10k-op zipf mix of gets, puts, deletes and
// scans through SubmitOp — waiting on every seventh op, the rest left to the
// window — with a 24-op Exec batch every 400 ops, on small nodes so leaves
// split mid-pipeline.
func goldenStream(cfg core.Config, depth int) pipelineGolden {
	cfg.Format = testutil.SmallFormat(layout.TwoLevel)
	tr := core.New(cluster.New(cluster.Config{NumMS: 4, NumCS: 1}), cfg)
	wl := workload.DefaultConfig(workload.Mix{LookupPct: 40, InsertPct: 40, DeletePct: 10, RangePct: 10},
		workload.Zipfian, 20_000)
	wl.RangeSpan = 20
	kvs := make([]layout.KV, wl.LoadedKeys())
	for i := range kvs {
		kvs[i] = layout.KV{Key: uint64(i + 1), Value: uint64(i + 1)}
	}
	tr.Bulkload(kvs)
	h := tr.NewHandle(0, 0)
	a := h.NewAsync(depth)
	g := workload.NewGenerator(wl, 42)
	coreOp := func(op workload.Op) core.Op {
		kind := [...]stats.OpKind{workload.Lookup: stats.OpLookup, workload.Insert: stats.OpInsert,
			workload.Delete: stats.OpDelete, workload.Range: stats.OpRange}[op.Kind]
		return core.Op{Kind: kind, Key: op.Key, Value: op.Value, Span: op.Span}
	}
	batch := make([]core.Op, 24)
	for i := 0; i < 10_000; i++ {
		p := a.SubmitOp(coreOp(g.Next()))
		if i%7 == 0 {
			p.Wait()
		}
		if i%400 == 399 {
			for j := range batch {
				batch[j] = coreOp(g.Next())
			}
			a.Exec(batch)
		}
	}
	a.Flush()
	return pipelineGolden{
		clock:      h.C.Now(),
		pipelined:  h.Rec.PipelinedOps,
		meanDepth:  h.Rec.PipelineDepths.Mean(),
		hiding:     h.Rec.HidingRatio(),
		roundTrips: h.Metrics().RoundTrips,
		meanLatNS:  h.Rec.AllLatency.Mean(),
	}
}

// TestPipelineVirtualTimeGolden pins the simulator's account of goldenStream
// to the values recorded at commit 71f2af8, before the lane/deps executor
// became the slot window: the executor swap must not move virtual time.
// Re-pinned once since, declared: a scan that misses level 1 now batches
// its leaves from the level-1 node it reads, saving a round trip (21886 →
// 21865 round trips; clock and latency follow, pipelining does not move).
// Re-pinned a second time, declared: a scan batch reads only the leaves its
// remaining rows need, so each ReadMulti moves fewer bytes (round trips
// stay 21865; clock, latency and hiding move by ~0.1 %).
// Those three rows are the published write, AblationConfig(StepTwoLevelVer).
// ShermanConfig adds the acquire doorbell, which saves one round trip per
// write that wins its lock's first CAS; its rows were recorded when the
// simulator adopted it.
func TestPipelineVirtualTimeGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
		want map[int]pipelineGolden
	}{
		{"published", core.AblationConfig(core.StepTwoLevelVer), map[int]pipelineGolden{
			1: {clock: 46401717, pipelined: 0, meanDepth: 0, hiding: 0, roundTrips: 21865, meanLatNS: 4377.495849056604},
			4: {clock: 19120131, pipelined: 10580, meanDepth: 3.3149338374291117, hiding: 2.457089178317098, roundTrips: 21865, meanLatNS: 5405.780754716981},
			8: {clock: 15668244, pipelined: 10580, meanDepth: 5.112948960302457, hiding: 3.0129175116721476, roundTrips: 21865, meanLatNS: 6510.686415094339},
		}},
		{"sherman", core.ShermanConfig(), map[int]pipelineGolden{
			1: {clock: 35541525, pipelined: 0, meanDepth: 0, hiding: 0, roundTrips: 16478, meanLatNS: 3352.952169811321},
			4: {clock: 14766546, pipelined: 10580, meanDepth: 3.281758034026465, hiding: 2.4417993936269564, roundTrips: 16478, meanLatNS: 4109.233490566037},
			8: {clock: 12015516, pipelined: 10580, meanDepth: 5.078733459357278, hiding: 3.013320213684968, roundTrips: 16478, meanLatNS: 4940.990660377359},
		}},
	} {
		for _, depth := range []int{1, 4, 8} {
			if got := goldenStream(tc.cfg, depth); got != tc.want[depth] {
				t.Errorf("%s, depth %d:\n got %+v\nwant %+v", tc.name, depth, got, tc.want[depth])
			}
		}
	}
}
