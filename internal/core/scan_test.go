package core_test

import (
	"testing"

	"sherman/internal/core"
	"sherman/internal/testutil"
)

// TestScanBatchLeafReads counts the leaves a warm scan reads through the
// memory servers' inbound counters, on both fabrics. Over 1 KiB nodes
// bulkloaded 80 % full (44 rows a leaf, 27 for a half-full one) a batch
// reads the cursor's leaf plus enough half-full leaves for the rows still
// wanted, at most 16: Scan(1, 100) is one batch of 5 leaves, and
// Scan(1, 1000) is a first batch of 16 (704 rows) and a second one sized
// for the 296 rows left, 1 + ⌈296/27⌉ = 12 leaves, two round trips in all.
// Every leaf it reads lies under the first level-1 node, on one server.
func TestScanBatchLeafReads(t *testing.T) {
	cfg := core.ShermanConfig()
	if f := cfg.Format; f.LeafCap != 55 || int(float64(f.IntCap)*0.8) < 28 {
		t.Fatalf("format changed (leaf cap %d, int cap %d): recompute the expected batches", f.LeafCap, f.IntCap)
	}
	testutil.RunFabrics(t, func(t *testing.T, fab testutil.Fabric) {
		be, _ := fab.New(t, 2, 1, 0)
		tr := core.New(be, cfg)
		if err := tr.Bulkload(bulkKVs(100000)); err != nil {
			t.Fatal(err)
		}
		h := tr.NewHandle(0, 0)
		h.Lookup(1) // caches the first level-1 node, which the scans steer from
		inbound := func() int64 {
			var n int64
			for _, l := range be.Loads() {
				n += l.Ops
			}
			return n
		}
		for _, tc := range []struct{ span, leaves, rts int }{
			{100, 5, 1},
			{1000, 16 + 12, 2},
		} {
			ops, rts := inbound(), h.Metrics().RoundTrips
			got := h.Range(1, tc.span)
			ops, rts = inbound()-ops, h.Metrics().RoundTrips-rts
			if len(got) != tc.span || got[0].Key != 1 || got[tc.span-1].Key != uint64(tc.span) {
				t.Fatalf("Scan(1, %d) returned %d rows", tc.span, len(got))
			}
			if ops != int64(tc.leaves) || rts != int64(tc.rts) {
				t.Fatalf("Scan(1, %d) read %d leaves in %d round trips, want %d in %d",
					tc.span, ops, rts, tc.leaves, tc.rts)
			}
		}
	})
}
