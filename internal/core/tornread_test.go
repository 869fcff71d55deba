package core_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/testutil"
	"sherman/internal/transport"
	"sherman/internal/transport/tcp"
)

// TestTCPTornLeafReads runs lock-free lookups against a leaf that a writer
// keeps rewriting over TCP, for both layouts. The writer holds the leaf's
// HOCL lock and posts whole-leaf images that alternate between two value
// sets, each sealed as a write-back seals it (entry and node versions
// bumped, or the checksum recomputed). Every value a reader returns must
// come from one of the two images.
//
// shermand applies a verb per 64-byte line, as a NIC does, so reads racing
// the writer tear at line boundaries and the read-side consistency checks
// must catch them: the readers go on until they have counted a retry, and
// fail after 5 s without one. That needs two connections applied side by
// side, so it needs two Ps: at one, a connection's goroutine never yields
// inside a verb.
func TestTCPTornLeafReads(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("torn reads over TCP need two Ps")
	}
	testutil.RunConfigs(t, func(t *testing.T, cfg core.Config) {
		_, eps := testutil.ServeTCP(t, 2)
		dial := func(endpoints ...string) *tcp.Cluster {
			c, err := tcp.NewCluster(endpoints, 1, tcp.Options{HeartbeatInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			return c
		}
		c := dial(eps[0])
		// The writer is a second client with a connection of its own, as
		// another process would be: its cluster's server 0 is a scratch
		// server (a cluster's server 0 must be fresh), its server 1 the
		// tree's.
		wc := dial(eps[1], eps[0])
		tr := core.New(c, cfg)
		const keys = 8
		tr.Bulkload(bulkKVs(keys))
		leaf, level := c.RawRoot()
		if level != 0 {
			t.Fatalf("root at level %d, want a lone leaf", level)
		}

		lt := c.NewTransport(0)
		g := tr.Locks().Lock(lt, leaf)
		defer tr.Locks().Unlock(lt, g, nil, false)
		img := make([]byte, cfg.Format.NodeSize)
		c.RawRead(transport.ReadOp{Addr: leaf, Buf: img})
		wt, at := wc.NewTransport(0), transport.MakeAddr(1, leaf.Off())
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
			wt.Write(at, img)
		}
		post(0)
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for side := uint64(1); ; side ^= 1 {
				select {
				case <-stop:
					return
				default:
				}
				post(side)
			}
		}()

		const readers = 4
		deadline := time.Now().Add(5 * time.Second)
		var torn atomic.Bool
		hs := make([]*core.Handle, readers)
		var wg sync.WaitGroup
		for i := range hs {
			h := tr.NewHandle(0, i+1)
			hs[i] = h
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; !torn.Load() && time.Now().Before(deadline); j++ {
					k := uint64(j%keys) + 1
					if v, ok := h.Lookup(k); !ok || v>>1 != k {
						t.Errorf("lookup(%d) = %#x, %v; want %#x or %#x", k, v, ok, k<<1, k<<1|1)
						return
					}
					if h.Rec.ReadRetries.Sum() > 0 {
						torn.Store(true)
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-stopped
		var retries int64
		for _, h := range hs {
			retries += h.Rec.ReadRetries.Sum()
		}
		if retries == 0 {
			t.Fatal("no read retried in 5 s: no reader saw a torn leaf")
		}
	})
}
