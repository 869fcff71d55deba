package core

import (
	"testing"

	"sherman/internal/cluster"
	"sherman/internal/layout"
	"sherman/internal/rdma"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// killAfterRead is the simulated deployment, except that the first Read
// issued while armed kills the memory server it addressed as soon as it
// returns. Armed right before a warm-cache write, that Read is the leaf's
// validating read under the lock, so the server dies in the one window
// where the commit doorbell is swallowed: mirror finds the chunk re-keyed,
// raises the handle's redo flag, and the op must retry before it acks.
type killAfterRead struct {
	*cluster.Cluster
	armed  bool
	killed int // the server the armed Read killed; 0 if it addressed MS 0 (unkillable)
}

func (b *killAfterRead) NewTransport(cs int) transport.Transport {
	inner := b.Cluster.NewTransport(cs)
	return &killingTransport{Transport: inner, VirtualTimer: inner.(transport.VirtualTimer), b: b}
}

type killingTransport struct {
	transport.Transport
	transport.VirtualTimer
	b *killAfterRead
}

func (x *killingTransport) Read(a rdma.Addr, buf []byte) {
	x.Transport.Read(a, buf)
	if b := x.b; b.armed {
		b.armed = false
		if ms := int(a.MS()); ms != 0 && b.KillMS(ms) == nil {
			b.killed = ms
		}
	}
}

// TestKillAfterValidatingRead sweeps the bulkloaded keys of a 3-MS RF=2 tree
// (every third: each leaf is hit at least twice, and a fresh cluster per key
// is what the test costs) through each way of running one write — the
// synchronous entry points and the pipelined executor at depth 1 and 4 —
// killing the leaf's memory server between the write's validating read and
// its commit. Whatever the driver, the acked write must be durable through
// the promoted replica, no other acked write may be lost, the tree must
// validate, and the op must leave no redo flag behind for the next op to
// trip over.
func TestKillAfterValidatingRead(t *testing.T) {
	const newVal = 0xfeed
	drivers := []struct {
		name   string
		delete bool
		run    func(h *Handle, key uint64) (found bool)
	}{
		{"Insert", false, func(h *Handle, key uint64) bool { h.Insert(key, newVal); return true }},
		{"Delete", true, func(h *Handle, key uint64) bool { return h.Delete(key) }},
		{"NewAsync(1)", false, func(h *Handle, key uint64) bool {
			h.NewAsync(1).SubmitOp(Op{Kind: stats.OpInsert, Key: key, Value: newVal}).Wait()
			return true
		}},
		{"NewAsync(4)", false, func(h *Handle, key uint64) bool {
			a := h.NewAsync(4)
			p := a.SubmitOp(Op{Kind: stats.OpInsert, Key: key, Value: newVal})
			a.SubmitOp(Op{Kind: stats.OpLookup, Key: key + 1}) // keep the window busy behind it
			p.Wait()
			a.Flush()
			return true
		}},
	}
	load := make([]layout.KV, 120)
	for i := range load {
		k := uint64(2 * (i + 1))
		load[i] = layout.KV{Key: k, Value: k*7 + 1}
	}
	for _, cfg := range internalConfigs() {
		cfg.BulkFill = 1.0
		for _, d := range drivers {
			t.Run(cfg.Name()+"/"+d.name, func(t *testing.T) {
				fired, swept := 0, 0
				for i := 0; i < len(load); i += 3 {
					target := load[i]
					swept++
					be := &killAfterRead{Cluster: cluster.New(cluster.Config{NumMS: 3, NumCS: 2, ReplicationFactor: 2})}
					tr := New(be, cfg)
					tr.Bulkload(load)
					h := tr.NewHandle(1, 1)
					h.Lookup(target.Key) // warm the cache: the write's first Read is its leaf's

					be.armed = true
					found := d.run(h, target.Key)
					if be.killed == 0 {
						continue // the leaf lives on MS 0
					}
					fired++
					if !found {
						t.Fatalf("key %d: delete reported a bulkloaded key absent", target.Key)
					}
					if lost := be.Rep.Lost(); lost != 0 {
						t.Fatalf("key %d: %d chunks lost outright", target.Key, lost)
					}
					if err := tr.Validate(); err != nil {
						t.Fatalf("key %d: validate: %v", target.Key, err)
					}
					vh := tr.NewHandle(0, 99)
					vh.SetClock(be.Faults().LatestVerbV())
					for _, kv := range load {
						want, wantOK := kv.Value, true
						if kv.Key == target.Key {
							want, wantOK = newVal, !d.delete
						}
						if got, ok := vh.Lookup(kv.Key); ok != wantOK || (ok && got != want) {
							t.Fatalf("killed MS %d under key %d: acked state lost: key %d = (%#x,%v), want (%#x,%v)",
								be.killed, target.Key, kv.Key, got, ok, want, wantOK)
						}
					}
					if h.redo {
						t.Fatalf("key %d: op exited with the redo flag raised", target.Key)
					}
				}
				if fired < swept/3 {
					t.Fatalf("only %d of %d keys had their leaf's server killed", fired, swept)
				}
			})
		}
	}
}
