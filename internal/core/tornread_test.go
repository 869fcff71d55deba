package core_test

import (
	"testing"
	"time"

	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/testutil"
	"sherman/internal/transport"
	"sherman/internal/transport/tcp"
)

// TestTCPTornLeafReads runs tornLeafReads over TCP. The writer is a second
// client with a connection of its own, as another process would be: its
// cluster's server 0 is a scratch server (a cluster's server 0 must be
// fresh), its server 1 the tree's.
func TestTCPTornLeafReads(t *testing.T) {
	testutil.RunConfigs(t, func(t *testing.T, cfg core.Config) {
		srvs, eps := testutil.ServeTCP(t, 2)
		dial := func(endpoints ...string) *tcp.Cluster {
			c, err := tcp.NewCluster(endpoints, 1, tcp.Options{HeartbeatInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return c
		}
		c := dial(eps[0])
		wt := dial(eps[1], eps[0]).NewTransport(0)
		tornLeafReads(t, cfg, c, srvs[0], func(leaf transport.Addr, img []byte) {
			wt.Write(transport.MakeAddr(1, leaf.Off()), img)
		})
	})
}

// TestSimTornLeafReads runs tornLeafReads on the simulator, the writer a
// client of a second compute server. The held write stops on the writer's
// own goroutine, as it does on shermand's connection goroutine over TCP.
func TestSimTornLeafReads(t *testing.T) {
	testutil.RunConfigs(t, func(t *testing.T, cfg core.Config) {
		cl := testutil.NewCluster(t, 1, 2)
		wt := cl.NewTransport(1)
		tornLeafReads(t, cfg, cl, cl.F.Servers()[0], func(leaf transport.Addr, img []byte) {
			wt.Write(leaf, img)
		})
	})
}

// heldServer is the memory server holding the tree, on either fabric: its
// store's write hold and its served-command count.
type heldServer interface {
	HoldWrite(hold func())
	InboundOps() int64
}

// tornLeafReads runs a lock-free lookup against a leaf that a writer is
// rewriting. The writer holds the leaf's HOCL lock and posts whole-leaf
// images (write posts one at the leaf's address) that alternate between two
// value sets, each sealed as a write-back seals it (entry and node versions
// bumped, or the checksum recomputed). Every value a reader returns must
// come from one of the two images.
//
// Both fabrics apply a verb per 64-byte line, as a NIC does, so a read
// racing the writer tears at a line boundary, and the read-side consistency
// checks must catch it. The tear is forced, not waited for: the server holds
// one image's write after its first line (memstore's HoldWrite) until the
// reader has read the leaf twice, so the reader's first read is torn on
// every run and its lookup must retry.
func tornLeafReads(t *testing.T, cfg core.Config, be core.Backend, srv heldServer, write func(leaf transport.Addr, img []byte)) {
	tr := core.New(be, cfg)
	const keys = 8
	tr.Bulkload(bulkKVs(keys))
	leaf, level := be.RawRoot()
	if level != 0 {
		t.Fatalf("root at level %d, want a lone leaf", level)
	}

	lt := be.NewTransport(0)
	h := tr.NewHandle(0, 1)
	g := tr.Locks().Lock(lt, leaf)
	defer tr.Locks().Unlock(lt, g, nil, false)
	img := make([]byte, cfg.Format.NodeSize)
	be.RawRead(transport.ReadOp{Addr: leaf, Buf: img})
	post := func(side uint64) {
		l := layout.AsLeaf(layout.ViewNode(cfg.Format, img))
		for k := uint64(1); k <= keys; k++ {
			if cfg.Format.Mode == layout.TwoLevel {
				i, _ := l.Find(k)
				l.SetEntry(i, k, k<<1|side)
			} else {
				l.InsertSorted(k, k<<1|side)
			}
		}
		if cfg.Format.Mode == layout.TwoLevel {
			l.BumpNodeVersions()
		} else {
			l.UpdateChecksum()
		}
		write(leaf, img)
	}
	post(0)
	const k = keys / 2
	h.Lookup(k) // warm: the next lookup reads the leaf and nothing else
	before := h.Rec.ReadRetries.Sum()

	// Hold the next image's write after its first line until the server
	// has answered two of the reader's reads: the first of them saw that
	// line new and the rest of the leaf old.
	held, release := make(chan int64), make(chan struct{})
	srv.HoldWrite(func() {
		held <- srv.InboundOps()
		<-release
	})
	written := make(chan struct{})
	go func() {
		defer close(written)
		post(1)
	}()
	served := <-held
	var v uint64
	var ok bool
	looked := make(chan struct{})
	go func() {
		defer close(looked)
		v, ok = h.Lookup(k)
	}()
wait:
	for srv.InboundOps() < served+2 {
		select {
		case <-looked:
			break wait // one read was enough: it saw no tear
		case <-time.After(100 * time.Microsecond):
		}
	}
	close(release)
	<-looked
	<-written
	if !ok || v>>1 != k {
		t.Errorf("lookup(%d) = %#x, %v; want %#x or %#x", k, v, ok, k<<1, k<<1|1)
	}
	if h.Rec.ReadRetries.Sum() == before {
		t.Error("the lookup did not retry a leaf read torn between its first two lines")
	}
}
