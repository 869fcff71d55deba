package alloc_test

import (
	"slices"
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/transport"
)

// chunkOn is chunk index idx on memory server ms.
func chunkOn(ms uint16, idx uint64) alloc.ChunkID { return alloc.ChunkID{MS: ms, Index: idx} }

// targetServers lists the servers of ck's current replica set, or nil when
// ck is not a registered primary.
func targetServers(r *alloc.ReplicaMap, ck alloc.ChunkID) []uint16 {
	var ts alloc.TargetSet
	if !r.Targets(ck, &ts) {
		return nil
	}
	out := []uint16{}
	for i := 0; i < ts.N; i++ {
		out = append(out, ts.Bases[i].MS())
	}
	return out
}

// TestFailoverServerPromotion pins ReplicaMap.FailoverServer's promotion
// rule: a dead primary's chunk moves to its first complete live replica,
// else its first live one, and is counted lost when none is live; copies
// the dead server hosted for other chunks leave their sets.
func TestFailoverServerPromotion(t *testing.T) {
	ck := chunkOn(0, 3)
	base := func(ms uint16) transport.Addr { return chunkOn(ms, 7).ChunkBase() }
	cases := []struct {
		name  string
		setup func(r *alloc.ReplicaMap)
		dead  []uint16 // servers down besides the failing server 0
		// promoted is the server of ck's promoted replica (-1: none).
		promoted int
		// left are the servers of the promoted chunk's replica set.
		left          []uint16
		lost, dropped int64
		others        map[alloc.ChunkID][]uint16
	}{
		{
			name: "complete beats pending",
			setup: func(r *alloc.ReplicaMap) {
				r.Register(ck)
				r.AddPendingReplica(ck, base(1))
				r.AddPendingReplica(ck, base(2))
				r.CompleteReplica(ck, base(2))
			},
			promoted: 2, left: []uint16{1},
		},
		{
			name:     "first complete replica",
			setup:    func(r *alloc.ReplicaMap) { r.Register(ck, base(1), base(2)) },
			promoted: 1, left: []uint16{2},
		},
		{
			name:     "dead replica skipped",
			setup:    func(r *alloc.ReplicaMap) { r.Register(ck, base(1), base(2)) },
			dead:     []uint16{1},
			promoted: 2, left: []uint16{},
		},
		{
			name: "pending only",
			setup: func(r *alloc.ReplicaMap) {
				r.Register(ck)
				r.AddPendingReplica(ck, base(1))
			},
			promoted: 1, left: []uint16{},
		},
		{
			name:     "no live replica is lost",
			setup:    func(r *alloc.ReplicaMap) { r.Register(ck, base(1)) },
			dead:     []uint16{1},
			promoted: -1, lost: 1,
		},
		{
			name: "copies on the dead server dropped",
			setup: func(r *alloc.ReplicaMap) {
				r.Register(ck, base(1))
				r.Register(chunkOn(1, 0), chunkOn(0, 9).ChunkBase(), chunkOn(2, 9).ChunkBase())
				r.Register(chunkOn(2, 0), chunkOn(0, 10).ChunkBase())
				r.Register(chunkOn(3, 0), chunkOn(1, 11).ChunkBase())
			},
			promoted: 1, left: []uint16{}, dropped: 2,
			others: map[alloc.ChunkID][]uint16{
				chunkOn(1, 0): {2},
				chunkOn(2, 0): {},
				chunkOn(3, 0): {1},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := alloc.NewReplicaMap()
			tc.setup(r)
			alive := func(ms int) bool { return ms != 0 && !slices.Contains(tc.dead, uint16(ms)) }
			got := r.FailoverServer(0, alive)
			if r.Registered(ck) {
				t.Fatalf("dead primary %v still registered", ck)
			}
			switch {
			case tc.promoted < 0 && len(got) != 0:
				t.Fatalf("promoted %+v, want none", got)
			case tc.promoted >= 0 && (len(got) != 1 || got[0].Old != ck || got[0].NewBase.MS() != uint16(tc.promoted)):
				t.Fatalf("promoted %+v, want %v onto server %d", got, ck, tc.promoted)
			}
			if tc.promoted >= 0 {
				if left := targetServers(r, alloc.ChunkOf(got[0].NewBase)); !slices.Equal(left, tc.left) {
					t.Errorf("promoted chunk's replicas on servers %v, want %v", left, tc.left)
				}
			}
			if r.Lost() != tc.lost || r.DroppedReplicas() != tc.dropped {
				t.Errorf("lost %d dropped %d, want %d and %d", r.Lost(), r.DroppedReplicas(), tc.lost, tc.dropped)
			}
			if want := int64(len(got)); r.Promotions() != want {
				t.Errorf("Promotions() = %d, want %d", r.Promotions(), want)
			}
			for other, want := range tc.others {
				if left := targetServers(r, other); !slices.Equal(left, want) {
					t.Errorf("chunk %v replicas on servers %v, want %v", other, left, want)
				}
			}
		})
	}
}
