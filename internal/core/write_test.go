package core_test

import (
	"testing"

	core "sherman/internal/core"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/testutil"
)

// TestWriteSizesPerOp pins the bytes one point write records in
// Rec.WriteSizes, the distribution behind Figure 14(c), on both layouts: a
// TwoLevel put, update or found delete writes back its entry alone, a
// checksum-layout write the whole leaf, a split both halves, and a delete
// of an absent key nothing. An Exec group records once, as a point write
// does.
func TestWriteSizesPerOp(t *testing.T) {
	for _, cfg := range testutil.Configs() {
		t.Run(cfg.Name(), func(t *testing.T) {
			f := cfg.Format
			tr := core.New(testutil.NewCluster(t, 2, 1), cfg)
			h := tr.NewHandle(0, 0)
			leafWrite := int64(f.LeafEntSize)
			if f.Mode == layout.Checksum {
				leafWrite = int64(f.NodeSize)
			}
			// want checks that op records exactly one write of want bytes,
			// or none when want is 0.
			want := func(what string, want int64, op func()) {
				t.Helper()
				h.Rec = stats.NewRecorder()
				op()
				ws := h.Rec.WriteSizes
				switch {
				case want == 0 && ws.Count() != 0:
					t.Fatalf("%s recorded %s, want nothing", what, ws)
				case want != 0 && (ws.Count() != 1 || ws.Points()[0].Value != want):
					t.Fatalf("%s recorded %s (%d writes), want one of %dB", what, ws, ws.Count(), want)
				}
			}
			want("put", leafWrite, func() { h.Insert(10, 1) })
			want("update", leafWrite, func() { h.Insert(10, 2) })
			want("found delete", leafWrite, func() {
				if !h.Delete(10) {
					t.Fatal("delete missed key 10")
				}
			})
			want("absent delete", 0, func() {
				if h.Delete(10) {
					t.Fatal("delete found deleted key 10")
				}
			})
			// Fill the root leaf, then split it with one more put.
			for k := uint64(1); k <= uint64(f.LeafCap); k++ {
				want("filling put", leafWrite, func() { h.Insert(k, k) })
			}
			want("split", int64(2*f.NodeSize), func() { h.Insert(uint64(f.LeafCap)+1, 1) })
			// An Exec of two updates on one leaf is one locked group: one
			// sample of both entries' bytes (the whole leaf once in the
			// checksum layout), and one of a point update's round trips.
			h.Lookup(1) // warm the cache past the split: both writes find the leaf at once
			want("point update", leafWrite, func() { h.Insert(1, 2) })
			rtrips := h.Rec.WriteRoundTrips.PercentileValue(50)
			groupWrite := 2 * leafWrite
			if f.Mode == layout.Checksum {
				groupWrite = leafWrite
			}
			want("Exec of two updates", groupWrite, func() {
				h.Exec([]core.Op{{Kind: stats.OpInsert, Key: 1, Value: 3}, {Kind: stats.OpInsert, Key: 2, Value: 3}})
			})
			if rt := h.Rec.WriteRoundTrips; rt.Count() != 1 || rt.PercentileValue(50) != rtrips {
				t.Fatalf("Exec of two updates recorded %d round-trip samples (median %d), want one of %d",
					rt.Count(), rt.PercentileValue(50), rtrips)
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
