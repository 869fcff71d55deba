package tcp

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/stats"
)

// waveTree brings up a core tree over numMS in-process servers with
// heartbeats off — two compute servers, replication factor rf — bulkloaded
// with keys 1..keys at bulk values k<<32.
func waveTree(t *testing.T, numMS, rf, keys int, cfg core.Config) (*Cluster, *core.Tree) {
	t.Helper()
	c, err := NewCluster(startServers(t, numMS), 2, Options{ReplicationFactor: rf, HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	tr := core.New(c, cfg)
	kvs := make([]layout.KV, keys)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: k << 32}
	}
	tr.Bulkload(kvs)
	return c, tr
}

// waveSession drives ops operations, half puts and half gets, through a
// depth-8 session on compute server s, keeping 8 futures open. It owns the
// keys of 1..span congruent to s+1 mod 2 — nobody else writes them — and the
// executor orders a get after every outstanding put to its key, so each get
// must return exactly the last value this session submitted for that key.
// It reports the first mismatch, or nil.
func waveSession(tr *core.Tree, s, span, ops int, seed uint64) error {
	h := tr.NewHandle(s, s)
	a := h.NewAsync(8)
	defer a.Close()
	r := rand.New(rand.NewPCG(seed, uint64(s)))
	model := map[uint64]uint64{}
	type open struct {
		p    core.Pending
		op   core.Op
		want uint64
	}
	var fifo []open
	check := func(o open) error {
		res, _ := o.p.Wait()
		if o.op.Kind == stats.OpLookup && (!res.Found || res.Value != o.want) {
			return fmt.Errorf("session %d: get(%d) = %d, %v; want %d", s, o.op.Key, res.Value, res.Found, o.want)
		}
		return nil
	}
	for i := 1; i <= ops; i++ {
		k := 2*uint64(r.IntN(span/2)) + 1 + uint64(s)
		op := core.Op{Kind: stats.OpLookup, Key: k}
		want, ok := model[k]
		if !ok {
			want = k << 32
		}
		if r.IntN(2) == 0 {
			op = core.Op{Kind: stats.OpInsert, Key: k, Value: k<<32 | uint64(i)}
			model[k] = op.Value
		}
		if len(fifo) == 8 {
			if err := check(fifo[0]); err != nil {
				return err
			}
			fifo = fifo[1:]
		}
		fifo = append(fifo, open{p: a.SubmitOp(op), op: op, want: want})
	}
	for _, o := range fifo {
		if err := check(o); err != nil {
			return err
		}
	}
	a.Flush()
	return nil
}

// runWave runs fn(s) for two sessions side by side and fails the test if
// they do not both return within the deadline: a frame left with nobody to
// write it parks its thread, and then its session, forever.
func runWave(t *testing.T, deadline time.Duration, fn func(s int) error) {
	t.Helper()
	errs := make(chan error, 2)
	for s := 0; s < 2; s++ {
		go func() { errs <- fn(s) }()
	}
	timeout := time.After(deadline)
	for range 2 {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			buf := make([]byte, 1<<20)
			t.Fatalf("sessions stranded after %v:\n%s", deadline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// quiesce waits for the cluster's runnable count to drain to zero once every
// session has flushed — the runners give their counts up just after sending
// their last tokens. A count left behind would strand the next wave.
func quiesce(t *testing.T, c *Cluster) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.run.n.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("runnable count stuck at %d with every session flushed", c.run.n.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaveHazards runs two depth-8 sessions, on two compute servers and
// checked against their models, through every place a thread blocks on
// something other than its own verb. Each is a way for a thread to stay
// counted as runnable while parked, which would leave the frames of the
// threads that counted on it unwritten: local lock queueing with handover
// and cross-server CAS retries on one hot leaf lock, owner conflict drains,
// a full window, the unfair local spin without wait queues, and replica
// mirrors posted with PostWritesAsync. CI runs it at one P too, where a
// wrongly counted thread never runs beside the parked ones.
func TestWaveHazards(t *testing.T) {
	hot := core.ShermanConfig()
	spin := core.ShermanConfig()
	spin.Locks = hocl.Mode{OnChip: true, Local: true}
	cases := []struct {
		name       string
		cfg        core.Config
		rf         int
		keys, span int // bulkloaded keys; keys the sessions use
		ops        int // per session
		setup      func(c *Cluster)
		check      func(t *testing.T, st *hocl.Stats)
	}{
		{name: "hot lock", cfg: hot, keys: 8, span: 8, ops: 1500, check: func(t *testing.T, st *hocl.Stats) {
			if st.LocalWaits.Load() == 0 || st.Handovers.Load() == 0 {
				t.Errorf("one leaf under 16 runners: %d local waits, %d handovers", st.LocalWaits.Load(), st.Handovers.Load())
			}
		}},
		{name: "conflict drains", cfg: hot, keys: 1000, span: 4, ops: 1500},
		{name: "full window", cfg: hot, keys: 4000, span: 4000, ops: 1500, setup: func(c *Cluster) {
			for _, mx := range c.muxes {
				for len(mx.free) > 2 {
					<-mx.free // held for the test: two slots of 64 stay usable
				}
			}
		}},
		// The spinners keep both Ps busy, so replies are seen only when the
		// scheduler polls the network: few operations.
		{name: "local spin", cfg: spin, keys: 8, span: 8, ops: 150, check: func(t *testing.T, st *hocl.Stats) {
			if st.LocalWaits.Load() == 0 {
				t.Error("one leaf under 16 runners: no local spins")
			}
		}},
		{name: "mirror", cfg: hot, rf: 2, keys: 4000, span: 4000, ops: 1500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, tr := waveTree(t, 2, tc.rf, tc.keys, tc.cfg)
			if tc.setup != nil {
				tc.setup(c)
			}
			runWave(t, 30*time.Second, func(s int) error { return waveSession(tr, s, tc.span, tc.ops, 1) })
			quiesce(t, c)
			if tc.check != nil {
				tc.check(t, tr.LockStats())
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWaveFramesPerWrite counts what the runnable count buys: two depth-8
// put sessions keep 16 operations in flight, and the last of the runners a
// burst of replies wakes writes all their frames, so each write carries at
// least 6 (a guess at which runner is last, one yield before every write,
// left about 4). A lone depth-1 caller has nobody to wait for: each of its
// verbs leaves in a write of its own.
func TestWaveFramesPerWrite(t *testing.T) {
	c, tr := waveTree(t, 2, 0, 20000, core.ShermanConfig())
	sent := func() (frames, writes int64) {
		for _, w := range c.WireStats() {
			frames, writes = frames+w.Frames, writes+w.Writes
		}
		return frames, writes
	}
	puts := func(s int, ops int, seed uint64) {
		h := tr.NewHandle(s, s)
		a := h.NewAsync(8)
		defer a.Close()
		r := rand.New(rand.NewPCG(seed, uint64(s)))
		var fifo []core.Pending
		for i := 0; i < ops; i++ {
			if len(fifo) == 8 {
				fifo[0].Wait()
				fifo = fifo[1:]
			}
			k := uint64(r.IntN(20000)) + 1
			fifo = append(fifo, a.SubmitOp(core.Op{Kind: stats.OpInsert, Key: k, Value: k}))
		}
		a.Flush()
	}
	runWave(t, time.Minute, func(s int) error { puts(s, 500, 1); return nil }) // warm the caches
	f0, w0 := sent()
	runWave(t, time.Minute, func(s int) error { puts(s, 3000, 2); return nil })
	f1, w1 := sent()
	fpw := float64(f1-f0) / float64(w1-w0)
	t.Logf("two depth-8 put sessions: %.2f frames per write", fpw)
	if fpw < 6 {
		t.Errorf("two depth-8 put sessions: %d frames in %d writes, %.2f per write, want >= 6", f1-f0, w1-w0, fpw)
	}
	quiesce(t, c)

	h := tr.NewHandle(0, 0)
	f0, w0 = sent()
	for k := uint64(1); k <= 500; k++ {
		h.Lookup(k * 37)
	}
	if f1, w1 = sent(); f1-f0 != w1-w0 {
		t.Errorf("a lone depth-1 caller's gets: %d frames in %d writes, want one per write", f1-f0, w1-w0)
	}
}
