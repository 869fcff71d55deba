package tcp

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/transport"
)

// TestRawWaves: one WriteRaw call carrying more frames than the window holds
// completes (it awaits its oldest frames instead of blocking on slots only
// its own awaits free), packs small ops into burst-sized frames, sends an op
// bigger than a burst alone, has every frame on the wire when it returns,
// and stores every byte, which one ReadRaw, ordered behind the writes on
// each connection, reads back.
func TestRawWaves(t *testing.T) {
	c, err := NewCluster(startServers(t, 2), 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := transport.MakeAddr(1, c.GrowChunkRaw(1))

	const big, n = 40 << 10, 3 * defaultWindow // two never share a frame
	var ops []transport.WriteOp
	var off uint64
	for i := 0; i < n; i++ {
		size := big
		if i == 0 {
			size = burstBytes + 1 // bigger than any frame may be: rides alone
		}
		ops = append(ops, transport.WriteOp{Addr: base.Add(off), Data: bytes.Repeat([]byte{byte(i + 1)}, size)})
		off += uint64(size)
	}
	small := base.Add(off)
	for i := 0; i < 100; i++ { // 100 small ops ride in the last big op's frame
		ops = append(ops, transport.WriteOp{Addr: small.Add(uint64(i)), Data: []byte{byte(i)}})
	}

	frames := func() int64 { return c.WireStats()[1].Frames }
	before := frames()
	c.WriteRaw(ops...)
	if sent := frames() - before; sent != n {
		t.Fatalf("WriteRaw sent %d frames, want %d (one per big op, the small ones packed into the last)", sent, n)
	}
	reads := make([]transport.ReadOp, len(ops))
	for i, op := range ops {
		reads[i] = transport.ReadOp{Addr: op.Addr, Buf: make([]byte, len(op.Data))}
	}
	c.ReadRaw(reads...)
	for i := range ops {
		if !bytes.Equal(reads[i].Buf, ops[i].Data) {
			t.Fatalf("op %d at %v did not read back", i, ops[i].Addr)
		}
	}
	c.SyncRaw()
	checkRawIdle(t, c)
}

// checkRawIdle fails the test unless the raw client has nothing posted and
// unawaited and every mux has its whole window free.
func checkRawIdle(t *testing.T, c *Cluster) {
	t.Helper()
	if len(c.rawPend) != 0 {
		t.Fatalf("%d raw writes still pending", len(c.rawPend))
	}
	for ms, mx := range c.muxes {
		if free := len(mx.free); free != cap(mx.free) {
			t.Fatalf("ms%d: %d of %d window slots free", ms, free, cap(mx.free))
		}
	}
}

// closeAfterWaves is a deployment whose memory server 1 goes away right
// after the k-th raw write (a bulk load's slab wave) is posted: closed, so
// a raw verb's I/O error declares the death, or first killed through the
// fault injector, as a kill or a missed heartbeat does.
type closeAfterWaves struct {
	*Cluster
	srv   *Server
	kill  bool
	k     int32
	waves atomic.Int32
}

func (b *closeAfterWaves) RawWrite(ops ...transport.WriteOp) {
	b.Cluster.RawWrite(ops...)
	if b.waves.Add(1) == b.k {
		if b.kill {
			b.Faults().KillMS(1)
		}
		b.srv.Close()
	}
}

// TestBulkloadServerDies: a memory server that goes away while a bulk
// load's waves are in flight neither hangs Bulkload nor leaks a window
// slot. Bulkload returns within 10 s, the server is dead through the fault
// injector, and every posted frame has been awaited, whichever wave the
// death follows.
func TestBulkloadServerDies(t *testing.T) {
	kvs := make([]layout.KV, 200000)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: k << 32}
	}
	for _, kill := range []bool{false, true} {
		for _, k := range []int32{1, 4, 16} {
			t.Run(fmt.Sprintf("kill=%v/wave=%d", kill, k), func(t *testing.T) {
				srvs := make([]*Server, 2)
				eps := make([]string, 2)
				for i := range srvs {
					srv, err := NewServer("127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					go srv.Serve()
					t.Cleanup(srv.Close)
					srvs[i], eps[i] = srv, srv.Addr()
				}
				c, err := NewCluster(eps, 1, Options{HeartbeatInterval: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				be := &closeAfterWaves{Cluster: c, srv: srvs[1], kill: kill}
				tr := core.New(be, core.ShermanConfig())
				be.k = be.waves.Load() + k
				done := make(chan struct{})
				go func() {
					tr.Bulkload(kvs)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					buf := make([]byte, 1<<20)
					t.Fatalf("Bulkload still running 10 s after ms1 went away:\n%s", buf[:runtime.Stack(buf, true)])
				}
				if be.waves.Load() < be.k {
					t.Fatalf("Bulkload posted %d waves, want at least %d", be.waves.Load(), be.k)
				}
				if c.MSAlive(1) {
					t.Fatal("ms1 is closed but not declared dead")
				}
				checkRawIdle(t, c)
			})
		}
	}
}

// TestLockstepRead: the heartbeat-style lockstep READ answers every round
// trip on its own connection next to a live client cluster, and a refused
// READ (past the chunk) is an error, not a short answer.
func TestLockstepRead(t *testing.T) {
	eps := startServers(t, 1)
	c, err := NewCluster(eps, 1, Options{HeartbeatInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := transport.MakeAddr(0, c.GrowChunkRaw(0))
	rtts, err := LockstepRead(eps[0], base, 1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range rtts {
		if d <= 0 {
			t.Fatalf("round trip %d took %v", i, d)
		}
	}
	if len(rtts) != 5 {
		t.Fatalf("%d round trips timed, want 5", len(rtts))
	}
	if _, err := LockstepRead(eps[0], base.Add(1<<40), 1024, 1); err == nil {
		t.Fatal("a READ outside every chunk succeeded")
	}
}
