package cache

import (
	"fmt"
	"sync"
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/layout"
	"sherman/internal/rdma"
)

var testFormat = layout.DefaultFormat(layout.TwoLevel)

// mkNodeAt builds a full internal node at the given level covering
// [lower, upper). Its routing copy is within one separator of NodeSize, so
// a budget of k nodes holds k of them (k < 100), as the tests below count.
func mkNodeAt(level uint8, lower, upper uint64) layout.Internal {
	return mkFilled(level, lower, upper, testFormat.IntCap)
}

// mkFilled builds an internal node with cnt separators. The separator keys
// are placeholders (the cache routes by fences), and every child shares the
// leftmost child's chunk, so the node references one chunk besides its own.
func mkFilled(level uint8, lower, upper uint64, cnt int) layout.Internal {
	n := layout.NewInternal(testFormat, level, lower, upper)
	n.SetLeftmost(rdma.MakeAddr(0, lower+64))
	seps := make([]layout.Sep, cnt)
	for i := range seps {
		seps[i] = layout.Sep{Key: lower + 1 + uint64(i), Child: n.Leftmost()}
	}
	n.SetSeparators(seps)
	return n
}

// mkNode builds a level-1 node (the common case across these tests).
func mkNode(lower, upper uint64) layout.Internal { return mkNodeAt(1, lower, upper) }

func addr(i uint64) rdma.Addr { return rdma.MakeAddr(0, 0x10000+i*1024) }

// flat builds a level-1-only cache (the paper's flat type-1 configuration)
// holding limit entries.
func flat(limit int) *Cache {
	return New(Config{MaxBytes: int64(limit * testFormat.NodeSize), NodeSize: testFormat.NodeSize, Levels: 1})
}

// insist inserts until admitted (the frequency gate may turn the first
// attempt away under level pressure, exactly like a repeated traversal).
func insist(c *Cache, a rdma.Addr, n layout.Internal) {
	for i := 0; i < 3; i++ {
		c.Insert(a, n, 0)
		if e := c.sl[n.Level()].floor(n.LowerFence()); e != nil && e.Addr == a {
			return
		}
	}
}

func TestLookupHitAndMiss(t *testing.T) {
	c := flat(1024)
	c.Insert(addr(1), mkNode(100, 200), 0)
	c.Insert(addr(2), mkNode(200, 300), 0)

	for _, tc := range []struct {
		key  uint64
		want rdma.Addr
		hit  bool
	}{
		{100, addr(1), true},
		{150, addr(1), true},
		{199, addr(1), true},
		{200, addr(2), true},
		{299, addr(2), true},
		{99, 0, false},  // below every cached range
		{300, 0, false}, // above every cached range
	} {
		e := c.Lookup(tc.key, 1)
		if tc.hit {
			if e == nil {
				t.Errorf("Lookup(%d) = miss, want hit on %v", tc.key, tc.want)
				continue
			}
			if e.Addr != tc.want {
				t.Errorf("Lookup(%d) = %v, want %v", tc.key, e.Addr, tc.want)
			}
		} else if e != nil {
			t.Errorf("Lookup(%d) = hit on %v, want miss", tc.key, e.Addr)
		}
	}
	if c.Hits() == 0 || c.Misses() == 0 {
		t.Errorf("counters: hits=%d misses=%d, both should be nonzero", c.Hits(), c.Misses())
	}
}

// TestLookupGapMiss: a key between two cached nodes' ranges (not covered by
// the floor node's fences) must miss rather than steer wrongly.
func TestLookupGapMiss(t *testing.T) {
	c := flat(1024)
	c.Insert(addr(1), mkNode(100, 200), 0)
	c.Insert(addr(3), mkNode(500, 600), 0)
	if e := c.Lookup(350, 1); e != nil {
		t.Errorf("Lookup(350) in coverage gap = hit on %v, want miss", e.Addr)
	}
}

func TestInsertReplacesSameFence(t *testing.T) {
	c := flat(1024)
	c.Insert(addr(1), mkNode(100, 200), 0)
	// A split shrank the node: replace the copy at the same lower fence.
	c.Insert(addr(1), mkNode(100, 150), 0)
	e := c.Lookup(160, 1)
	if e != nil {
		t.Errorf("Lookup(160) after shrink = hit on %v, want miss", e.Addr)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("Len = %d, want 1 (replaced, not duplicated)", got)
	}
}

// TestLevelsAreIndependent: entries at different tree levels live in
// separate per-level maps; a level-2 entry never answers a level-1 lookup.
func TestLevelsAreIndependent(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, NodeSize: testFormat.NodeSize, Levels: 3})
	c.Insert(addr(1), mkNodeAt(1, 100, 200), 0)
	c.Insert(addr(2), mkNodeAt(2, 0, 1000), 0)
	if e := c.Lookup(150, 1); e == nil || e.Addr != addr(1) {
		t.Fatal("level-1 lookup broken")
	}
	if e := c.Lookup(150, 2); e == nil || e.Addr != addr(2) {
		t.Fatal("level-2 lookup broken")
	}
	if e := c.Lookup(500, 1); e != nil {
		t.Errorf("level-1 lookup answered by a level-2 range: %v", e.Addr)
	}
}

// TestDeepest returns the lowest-level covering entry — the point a
// traversal resumes from.
func TestDeepest(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, NodeSize: testFormat.NodeSize, Levels: 3})
	c.Insert(addr(2), mkNodeAt(2, 0, 1000), 0)
	c.Insert(addr(3), mkNodeAt(3, 0, layout.NoUpperBound), 0)
	if e := c.Deepest(500, 1, 5); e == nil || e.Level() != 2 {
		t.Fatalf("Deepest(500) = %+v, want the level-2 entry", e)
	}
	c.Insert(addr(1), mkNodeAt(1, 400, 600), 0)
	if e := c.Deepest(500, 1, 5); e == nil || e.Level() != 1 {
		t.Fatalf("Deepest(500) after level-1 insert = %+v, want level 1", e)
	}
	// Below the lo bound the deeper entry is skipped.
	if e := c.Deepest(500, 2, 5); e == nil || e.Level() != 2 {
		t.Fatalf("Deepest(500, lo=2) = %+v, want level 2", e)
	}
	if e := c.Deepest(5000, 1, 5); e == nil || e.Level() != 3 {
		t.Fatalf("Deepest(5000) = %+v, want the level-3 root entry", e)
	}
}

// TestPinnedTopLevels: nodes at rootLevel-1 and above are admitted
// unconditionally, never evicted, and ride outside the budget; a root
// change flushes them.
func TestPinnedTopLevels(t *testing.T) {
	c := New(Config{MaxBytes: 1, NodeSize: testFormat.NodeSize, Levels: 1}) // budget: 1 entry
	c.SetRoot(addr(100), 3)
	c.Insert(addr(100), mkNodeAt(3, 0, layout.NoUpperBound), 3)
	c.Insert(addr(101), mkNodeAt(2, 0, 1000), 3)
	if c.PinnedLen() != 2 {
		t.Fatalf("PinnedLen = %d, want 2", c.PinnedLen())
	}
	if c.Len() != 0 {
		t.Fatalf("pinned entries consumed the budget: Len = %d", c.Len())
	}
	// Budget pressure cannot evict pinned entries.
	insist(c, addr(1), mkNode(0, 100))
	insist(c, addr(2), mkNode(100, 200))
	if e := c.Lookup(500, 2); e == nil {
		t.Fatal("pinned level-2 entry evicted under budget pressure")
	}
	// A root change drops the stale top structure but keeps the root pointer.
	c.SetRoot(addr(200), 4)
	if e := c.Lookup(500, 2); e != nil {
		t.Fatal("pinned entry survived a root change")
	}
	if r, lvl := c.Root(); r != addr(200) || lvl != 4 {
		t.Fatalf("Root = (%v,%d), want (%v,4)", r, lvl, addr(200))
	}
}

func TestFlushTopKeepsRoot(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, NodeSize: testFormat.NodeSize})
	c.SetRoot(addr(7), 2)
	c.Insert(addr(7), mkNodeAt(2, 0, layout.NoUpperBound), 2)
	c.FlushTop()
	if e := c.Lookup(100, 2); e != nil {
		t.Error("FlushTop kept a pinned copy")
	}
	if r, lvl := c.Root(); r != addr(7) || lvl != 2 {
		t.Errorf("FlushTop dropped the root: (%v,%d)", r, lvl)
	}
}

func TestInvalidate(t *testing.T) {
	c := flat(1024)
	c.Insert(addr(1), mkNode(100, 200), 0)
	e := c.Lookup(150, 1)
	if e == nil {
		t.Fatal("expected hit")
	}
	c.Invalidate(e)
	if got := c.Lookup(150, 1); got != nil {
		t.Errorf("Lookup after Invalidate = hit on %v, want miss", got.Addr)
	}
	c.Invalidate(e)   // double-invalidate is a no-op
	c.Invalidate(nil) // nil is a no-op
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
	if c.Invalidations() != 1 {
		t.Errorf("Invalidations = %d, want 1", c.Invalidations())
	}
}

// TestInvalidateAddr drops exactly the entry caching a given address.
func TestInvalidateAddr(t *testing.T) {
	c := flat(1024)
	c.Insert(addr(1), mkNode(100, 200), 0)
	c.Insert(addr(2), mkNode(200, 300), 0)
	if !c.InvalidateAddr(addr(1)) {
		t.Fatal("InvalidateAddr missed a cached address")
	}
	if c.InvalidateAddr(addr(1)) {
		t.Fatal("InvalidateAddr hit twice")
	}
	if c.Lookup(150, 1) != nil {
		t.Error("entry survived InvalidateAddr")
	}
	if c.Lookup(250, 1) == nil {
		t.Error("unrelated entry dropped")
	}
}

// TestInvalidatePath drops the failing entry and the covering entries
// above it — the poisoned suffix of a failed speculative jump.
func TestInvalidatePath(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, NodeSize: testFormat.NodeSize, Levels: 3})
	c.Insert(addr(1), mkNodeAt(1, 100, 200), 0)
	c.Insert(addr(2), mkNodeAt(2, 0, 1000), 0)
	c.Insert(addr(3), mkNodeAt(3, 0, layout.NoUpperBound), 0)
	c.Insert(addr(4), mkNodeAt(1, 5000, 6000), 0)
	failed := c.Lookup(150, 1)
	if failed == nil {
		t.Fatal("expected a level-1 hit")
	}
	if n := c.InvalidatePath(150, failed); n != 3 {
		t.Fatalf("InvalidatePath dropped %d entries, want 3", n)
	}
	if c.Lookup(150, 1) != nil || c.Lookup(150, 2) != nil || c.Lookup(150, 3) != nil {
		t.Error("poisoned path entries survived")
	}
	if c.Lookup(5500, 1) == nil {
		t.Error("entry off the poisoned path dropped")
	}
	// A failing entry above the budgeted depth (pinned) is still dropped —
	// it must not survive to re-steer the retry.
	c.SetRoot(addr(100), 4)
	c.Insert(addr(5), mkNodeAt(4, 0, layout.NoUpperBound), 4)
	pinnedE := c.Lookup(500, 4)
	if pinnedE == nil {
		t.Fatal("expected a pinned hit")
	}
	if n := c.InvalidatePath(500, pinnedE); n != 1 {
		t.Fatalf("InvalidatePath on a pinned entry dropped %d, want 1", n)
	}
	if c.Lookup(500, 4) != nil {
		t.Error("stale pinned entry survived InvalidatePath")
	}
}

// TestInvalidateChunk drops entries that live in — or steer into — a chunk,
// through the chunk index (no predicate scan).
func TestInvalidateChunk(t *testing.T) {
	c := flat(1024)
	// addr() keeps everything in MS 0 chunk 0; place one entry's node in a
	// different chunk and one entry's child in chunk 0.
	far := rdma.MakeAddr(1, 0)
	inChunk := mkNode(100, 200) // leftmost child lands in MS 0, chunk 0
	c.Insert(far, inChunk, 0)
	outNode := layout.NewInternal(testFormat, 1, 300, 400)
	outNode.SetLeftmost(rdma.MakeAddr(1, 64))
	c.Insert(rdma.MakeAddr(1, 1024), outNode, 0)

	dropped := c.InvalidateChunk(alloc.ChunkOf(rdma.MakeAddr(0, 0)))
	if dropped != 1 {
		t.Fatalf("InvalidateChunk dropped %d, want 1 (the entry steering into the chunk)", dropped)
	}
	if c.Lookup(150, 1) != nil {
		t.Error("entry referencing the chunk survived")
	}
	if c.Lookup(350, 1) == nil {
		t.Error("entry with no reference into the chunk dropped")
	}
}

// TestEvictionBound: the cache never exceeds its entry limit under repeated
// insert pressure (repetition warms the admission gate, like repeated
// traversals of the same regions).
func TestEvictionBound(t *testing.T) {
	limit := 8
	c := flat(limit)
	for round := 0; round < 2; round++ {
		for i := uint64(0); i < 64; i++ {
			c.Insert(addr(i), mkNode(i*100, (i+1)*100), 0)
			if c.Len() > limit {
				t.Fatalf("cache grew to %d entries, limit %d", c.Len(), limit)
			}
		}
	}
	if c.Evictions() == 0 {
		t.Error("expected evictions")
	}
}

// TestAdmissionGate: when a level is full, one-shot inserts are turned away
// until their key region repeats within the decay window.
func TestAdmissionGate(t *testing.T) {
	c := flat(4)
	for i := uint64(0); i < 4; i++ {
		c.Insert(addr(i), mkNode(i*100, (i+1)*100), 0)
	}
	before := c.Len()
	c.Insert(addr(90), mkNode(9000, 9100), 0) // first touch: rejected
	if c.AdmissionRejects() == 0 {
		t.Fatal("full level admitted a one-shot insert")
	}
	if c.Lookup(9050, 1) != nil {
		t.Fatal("rejected insert is visible")
	}
	c.Insert(addr(90), mkNode(9000, 9100), 0) // second touch: admitted
	if c.Lookup(9050, 1) == nil {
		t.Fatal("repeated insert still rejected")
	}
	if c.Len() > before {
		t.Fatalf("admission exceeded the budget: %d > %d", c.Len(), before)
	}
}

// TestEvictionPrefersCold: power-of-two-choices evicts the lower-scored of
// two sampled entries, so recently used entries must survive eviction
// pressure statistically more often than stale ones. (Retention is
// probabilistic, not absolute — the comparison is the paper's design,
// §4.2.3 [48].)
func TestEvictionPrefersCold(t *testing.T) {
	const limit = 32
	c := flat(limit)
	// Fill the cache: entries 0..15 go stale, 16..31 stay hot.
	for i := uint64(0); i < limit; i++ {
		c.Insert(addr(i), mkNode(i*100, (i+1)*100), 0)
	}
	for round := 0; round < 10; round++ {
		for i := uint64(16); i < limit; i++ {
			c.Lookup(i*100+50, 1)
		}
	}
	// Apply eviction pressure: 16 fresh inserts displace 16 entries.
	for i := uint64(limit); i < limit+16; i++ {
		insist(c, addr(i), mkNode(i*100, (i+1)*100))
	}
	staleLeft, hotLeft := 0, 0
	for i := uint64(0); i < 16; i++ {
		if e := c.Lookup(i*100+50, 1); e != nil && e.Addr == addr(i) {
			staleLeft++
		}
	}
	for i := uint64(16); i < limit; i++ {
		if e := c.Lookup(i*100+50, 1); e != nil && e.Addr == addr(i) {
			hotLeft++
		}
	}
	if hotLeft <= staleLeft {
		t.Errorf("hot survivors %d <= stale survivors %d; eviction ignores recency", hotLeft, staleLeft)
	}
}

// TestEvictionProtectsDeepLevels: at equal recency the protection score
// favors the lower level — replacing a level-1 entry costs a near-full
// descent, a level-2 entry one extra read — and the cross-level backstop
// eviction applies it: when per-level share rounding lets the total exceed
// the budget, the level-2 entry is the one that goes.
func TestEvictionProtectsDeepLevels(t *testing.T) {
	c := New(Config{MaxBytes: 1, NodeSize: testFormat.NodeSize, Levels: 2})
	// Score mechanism, directly: equal recency, different levels.
	e1 := &Entry{level: 1}
	e2 := &Entry{level: 2}
	e1.lastUse.Store(100)
	e2.lastUse.Store(100)
	if c.score(e1) <= c.score(e2) {
		t.Fatalf("score(level1)=%d <= score(level2)=%d at equal recency", c.score(e1), c.score(e2))
	}
	// Behavior: a 1-entry budget with share rounding (each level's share
	// clamps to 1) triggers the cross-level backstop; the level-2 entry
	// loses despite being the more recent insert.
	insist(c, addr(1), mkNodeAt(1, 0, 100))
	c.Insert(addr(2), mkNodeAt(2, 0, 1000), 0)
	if c.Lookup(50, 1) == nil {
		t.Error("level-1 entry evicted by a level-2 newcomer")
	}
	if c.Lookup(500, 2) != nil {
		t.Error("level-2 entry survived the cross-level backstop")
	}
}

// TestBudgetSplit: with Levels=2, level 2 gets the smaller share, so a flood
// of level-2 inserts cannot displace the level-1 working set.
func TestBudgetSplit(t *testing.T) {
	const limit = 30
	c := New(Config{MaxBytes: int64(limit * testFormat.NodeSize), NodeSize: testFormat.NodeSize, Levels: 2})
	for i := uint64(0); i < 18; i++ {
		insist(c, addr(i), mkNodeAt(1, i*100, (i+1)*100))
	}
	for i := uint64(100); i < 160; i++ {
		insist(c, addr(i), mkNodeAt(2, i*100, (i+1)*100))
	}
	l1 := 0
	for i := uint64(0); i < 18; i++ {
		if e := c.Lookup(i*100+50, 1); e != nil {
			l1++
		}
	}
	if l1 < 10 {
		t.Errorf("level-2 flood displaced the level-1 set: %d/18 level-1 entries left", l1)
	}
}

// TestShareFollowsRootLevel: the budget splits only over the budgeted
// levels below the pinned region. Under a root at level 3, level 2 is pinned
// and level 1 may use the whole budget; from level 4 up the 2:1 split holds;
// an unknown root keeps it too. A rising root trims level 1 to its new share
// at the next insert. Shares and holdings are routing bytes.
func TestShareFollowsRootLevel(t *testing.T) {
	const limit = 30
	node := testFormat.NodeSize
	c := New(Config{MaxBytes: int64(limit * node), NodeSize: node, Levels: 2})
	for _, tc := range []struct {
		root           uint8
		level1, level2 int
	}{{0, 20 * node, 10 * node}, {2, 0, 0}, {3, limit * node, 0}, {4, 20 * node, 10 * node}, {7, 20 * node, 10 * node}} {
		c.SetRoot(addr(900+uint64(tc.root)), tc.root)
		if l1, l2 := c.share(1), c.share(2); l1 != tc.level1 || l2 != tc.level2 {
			t.Errorf("root at level %d: shares %d:%d bytes, want %d:%d", tc.root, l1, l2, tc.level1, tc.level2)
		}
	}

	// fills reports whether level 1's bytes fill share: no room left for
	// one more entry, and none over.
	entry := mkNode(0, 100).RoutingLen()
	fills := func(share int) bool { return c.bytes[1] <= share && c.bytes[1]+entry > share }
	c.SetRoot(addr(903), 3)
	for i := uint64(0); i < limit+10; i++ {
		insist(c, addr(i), mkNodeAt(1, i*100, (i+1)*100))
	}
	if !fills(limit * node) {
		t.Fatalf("root at level 3: level 1 holds %d bytes, want the whole budget %d", c.bytes[1], limit*node)
	}
	c.SetRoot(addr(904), 4)
	insist(c, addr(100), mkNodeAt(1, 100*100, 101*100))
	if !fills(20 * node) {
		t.Fatalf("root rose to level 4: level 1 holds %d bytes after the next insert, want its share %d", c.bytes[1], 20*node)
	}
}

// TestByteBudget: a budget of k nodes holds more than k routing copies of
// 80%-full nodes, every level's bytes stay within its share (a level may
// pass it only while it holds its one floor entry), and the total within the
// budget.
func TestByteBudget(t *testing.T) {
	const k = 30
	fill := testFormat.IntCap * 4 / 5
	c := New(Config{MaxBytes: int64(k * testFormat.NodeSize), NodeSize: testFormat.NodeSize, Levels: 2})
	check := func() {
		t.Helper()
		for lvl := uint8(1); lvl <= 2; lvl++ {
			if c.bytes[lvl] > c.share(lvl) && len(c.pools[lvl]) > 1 {
				t.Fatalf("level %d holds %d bytes in %d entries, share %d", lvl, c.bytes[lvl], len(c.pools[lvl]), c.share(lvl))
			}
		}
		if c.total > c.budget {
			t.Fatalf("cache holds %d bytes, budget %d", c.total, c.budget)
		}
	}
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 3*k; i++ {
			insist(c, addr(i), mkFilled(1, i*100, (i+1)*100, fill))
			check()
			insist(c, addr(1000+i), mkFilled(2, i*10_000, (i+1)*10_000, fill))
			check()
		}
	}
	if c.Len() <= k {
		t.Fatalf("budget of %d nodes holds %d routing copies of %d%%-full nodes, want more", k, c.Len(), 100*fill/testFormat.IntCap)
	}
	if want := k * testFormat.NodeSize * 2 / 3 / mkFilled(1, 0, 100, fill).RoutingLen(); len(c.pools[1]) != want {
		t.Fatalf("level 1 holds %d entries, want %d in its two-thirds share", len(c.pools[1]), want)
	}
	// The tiniest budget still holds one entry per level; the total floor
	// is one node, so the level-2 entry goes.
	tiny := New(Config{MaxBytes: 1, NodeSize: testFormat.NodeSize, Levels: 2})
	insist(tiny, addr(1), mkFilled(1, 0, 100, fill))
	tiny.Insert(addr(2), mkFilled(2, 0, 1000, fill), 0)
	if len(tiny.pools[1]) != 1 || len(tiny.pools[2]) != 0 {
		t.Fatalf("tiny cache holds %d:%d entries at levels 1:2, want 1:0", len(tiny.pools[1]), len(tiny.pools[2]))
	}
}

// TestRejectedInsertAllocatesNothing: the routing copy and the entry are
// made only after admission, so an insert the cache turns away — beyond the
// budgeted depth, or refused by the frequency gate — allocates nothing.
func TestRejectedInsertAllocatesNothing(t *testing.T) {
	c := flat(1)
	insist(c, addr(1), mkNode(0, 100))
	deep := mkNodeAt(2, 0, 1000)
	cold := mkNode(100, 200)
	rejects := c.AdmissionRejects()
	allocs := testing.AllocsPerRun(100, func() {
		c.Insert(addr(2), deep, 0)
		c.Insert(addr(3), cold, 0)
		c.freq = [freqBuckets]uint8{} // keep the gate cold
	})
	if allocs != 0 {
		t.Fatalf("rejected inserts allocated %.1f times per run", allocs)
	}
	if c.AdmissionRejects() == rejects || c.Lookup(150, 1) != nil || c.Lookup(500, 2) != nil {
		t.Fatal("the inserts were not rejected")
	}
}

// TestConcurrentMixed hammers the cache from many goroutines; correctness
// here is "no crashes, no wrong-range results, bounded size".
func TestConcurrentMixed(t *testing.T) {
	c := New(Config{MaxBytes: int64(64 * testFormat.NodeSize), NodeSize: testFormat.NodeSize, Levels: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := uint64((w*131 + i*17) % 6400)
				lvl := uint8(1 + i%2)
				switch i % 4 {
				case 0:
					lo := k / 100 * 100
					c.Insert(addr(lo/100), mkNodeAt(lvl, lo, lo+100), 0)
				case 1:
					if e := c.Lookup(k, lvl); e != nil && !e.N.Covers(k) {
						t.Errorf("Lookup(%d) returned node [%d,%d)", k, e.N.LowerFence(), e.N.UpperFence())
						return
					}
				case 2:
					if e := c.Deepest(k, 1, 4); e != nil && !e.N.Covers(k) {
						t.Errorf("Deepest(%d) returned node [%d,%d)", k, e.N.LowerFence(), e.N.UpperFence())
						return
					}
				case 3:
					if e := c.Lookup(k, lvl); e != nil {
						c.Invalidate(e)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > c.Limit() {
		t.Errorf("size %d exceeds limit %d", c.Len(), c.Limit())
	}
}

func TestCacheStatsCounters(t *testing.T) {
	c := flat(1024)
	c.Insert(addr(1), mkNode(0, 100), 0)
	c.Lookup(50, 1)
	c.Lookup(5000, 1)
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestTinyCache(t *testing.T) {
	// A cache smaller than one node still holds one entry (limit clamps).
	c := New(Config{MaxBytes: 1, NodeSize: testFormat.NodeSize, Levels: 1})
	if c.Limit() != 1 {
		t.Fatalf("limit = %d, want 1", c.Limit())
	}
	insist(c, addr(1), mkNode(0, 100))
	insist(c, addr(2), mkNode(100, 200))
	if c.Len() > 1 {
		t.Errorf("tiny cache holds %d entries", c.Len())
	}
}

func TestLevelsDisabled(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, NodeSize: testFormat.NodeSize, Levels: -1})
	c.Insert(addr(1), mkNode(0, 100), 0)
	if c.Lookup(50, 1) != nil {
		t.Error("budget-disabled cache admitted a level-1 entry")
	}
	// Pinned top levels still work.
	c.SetRoot(addr(9), 2)
	c.Insert(addr(9), mkNodeAt(2, 0, layout.NoUpperBound), 2)
	if c.Lookup(50, 2) == nil {
		t.Error("budget-disabled cache dropped a pinned top entry")
	}
}

func ExampleCache() {
	c := New(Config{MaxBytes: 1 << 20, NodeSize: testFormat.NodeSize})
	c.Insert(rdma.MakeAddr(0, 0x8000), mkNode(1000, 2000), 0)
	if e := c.Lookup(1500, 1); e != nil {
		fmt.Println("hit:", e.N.LowerFence(), e.N.UpperFence())
	}
	// Output: hit: 1000 2000
}
