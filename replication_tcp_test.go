package sherman

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestTCPCrashMatrix is the real-process counterpart of the replication
// gate: a factor-2 tree over three shermand processes, a victim SIGKILLed at
// a randomized point in the op stream, and a read-back that demands every
// acknowledged write back — exactly once, with its exact value — after
// failover and re-replication. Each round randomizes the kill point and the
// victim so the matrix covers kills during bulk-loaded reads, fresh-chunk
// writes and splits; the seed is logged for reproduction.
func TestTCPCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and builds cmd/shermand")
	}
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("seed %d", seed)

	const rounds = 2
	for round := 0; round < rounds; round++ {
		round := round
		victim := 1 + rng.Intn(2)
		killAt := 200 + rng.Intn(1200)
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			c, err := NewCluster(ClusterConfig{
				MemoryServers:     3,
				ComputeServers:    1,
				Transport:         TransportTCP,
				ReplicationFactor: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tree, err := c.CreateTree(TreeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var kvs []KV
			for k := uint64(1); k <= 256; k++ {
				kvs = append(kvs, KV{Key: k, Value: k * 13})
			}
			if err := tree.Bulkload(kvs); err != nil {
				t.Fatal(err)
			}

			s := openSession(t, tree, 0)
			const ops = 2000
			const keySpace = 4096
			// oracle is the full expected state: bulk load plus every
			// acknowledged mutation, in order.
			oracle := make(map[uint64]uint64, ops)
			for _, kv := range kvs {
				oracle[kv.Key] = kv.Value
			}
			t.Logf("killing ms%d at op %d", victim, killAt)
			for i := 0; i < ops; i++ {
				if i == killAt {
					if err := c.KillMemoryServer(victim); err != nil {
						t.Fatal(err)
					}
				}
				// Mostly inserts of fresh keys so the stream allocates chunks
				// and splits nodes before, during and after the death.
				key := uint64(rng.Intn(keySpace)) + 1
				switch {
				case rng.Intn(100) < 70:
					v := uint64(i)*1000003 + 1
					if err := s.PutE(key, v); err != nil {
						t.Fatalf("op %d: PutE: %v", i, err)
					}
					oracle[key] = v
				case rng.Intn(2) == 0:
					if _, err := s.DeleteE(key); err != nil {
						t.Fatalf("op %d: DeleteE: %v", i, err)
					}
					delete(oracle, key)
				default:
					if _, _, err := s.GetE(key); err != nil {
						t.Fatalf("op %d: GetE: %v", i, err)
					}
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := c.ReplicationStats(); got.Failovers == 0 || got.LostChunks != 0 {
				t.Fatalf("replication stats after kill: %+v (want failovers > 0, no lost chunks)", got)
			}

			// Repair to full redundancy, then read back every acked write.
			for i := 0; c.ReplicationStats().UnderReplicated > 0; i++ {
				if _, err := tree.ReReplicate(0); err != nil {
					t.Fatal(err)
				}
				if i > 64 {
					t.Fatalf("%d chunks still under-replicated after 64 sweeps", c.ReplicationStats().UnderReplicated)
				}
			}
			for k, want := range oracle {
				v, ok, err := s.GetE(k)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || v != want {
					t.Errorf("acked key %d = %d,%v; want %d,true", k, v, ok, want)
				}
			}
			// Deleted and never-written keys must stay absent: a promoted
			// replica resurrecting a deleted key would show up here.
			for probe := 0; probe < 256; probe++ {
				k := uint64(rng.Intn(keySpace)) + 1
				if _, present := oracle[k]; present {
					continue
				}
				if _, ok, err := s.GetE(k); err != nil {
					t.Fatal(err)
				} else if ok {
					t.Errorf("key %d reachable but never acked (or deleted)", k)
				}
			}
			if err := tree.Validate(); err != nil {
				t.Fatalf("tree invalid after crash + repair: %v", err)
			}
		})
	}
}
