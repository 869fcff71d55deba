// Package cache implements the compute-server-side index cache as one
// unified, level-aware structure (§4.2.3 generalized): copies of internal
// nodes at every tree level, kept in per-level concurrent skiplists with
// lock-free search. The top two tree levels (the root and the level below
// it) are pinned — always admitted, never evicted, outside the byte budget —
// exactly the paper's type-2 "always cached" region; the levels below are
// the budgeted region: admission is frequency-gated under pressure, the
// byte budget is split across levels, and eviction weighs hit recency
// against level (an evicted level-1 entry costs a near-full descent to
// replace, an evicted level-3 entry one extra round trip, so deeper —
// lower-level — entries earn proportionally more protection).
//
// The cache needs no coherence protocol: internal nodes only carry location
// information, and every fetched node is validated against its fence keys
// and level — a stale entry steers the client to a node whose fences reject
// the key, which invalidates the poisoned path suffix and retraverses.
// Invalidation is O(affected), never a predicate scan: entries are indexed
// by their own address (reclaimed-lock repairs, split refreshes) and by
// every 8 MB chunk they reference (live migration drops exactly the entries
// that steer into a migrated chunk).
package cache

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"sherman/internal/alloc"
	"sherman/internal/layout"
	"sherman/internal/rdma"
)

// MaxLevels bounds the tree levels the cache indexes (level 0 — leaves — is
// never cached; real trees stay far below this).
const MaxLevels = 15

// DefaultLevels is the default budgeted caching depth: levels 1 and 2. The
// paper's type-1 cache is level 1 only; the second level lets a level-1 miss
// restart one read above the leaves instead of at the top (see DESIGN.md
// §10 for the measured trade-off).
const DefaultLevels = 2

// admission-filter geometry: a tiny decaying touch-count sketch gates
// admission to a full level, so one-shot traversals cannot thrash entries
// that earn repeated hits.
const (
	freqBuckets       = 1024
	freqDecayInterval = 4096
	freqAdmitMin      = 2
)

// Config sizes one compute server's cache.
type Config struct {
	// MaxBytes bounds the budgeted (non-pinned) entries; the pinned top
	// levels ride outside it, as in the paper.
	MaxBytes int64
	// NodeSize is the unit of Limit and of the eviction clock, and the
	// smallest budget and level share: each holds at least one entry.
	NodeSize int
	// Levels is the budgeted caching depth: tree levels 1..Levels are
	// cacheable. 0 means DefaultLevels; negative disables the budgeted
	// region entirely (top levels stay pinned).
	Levels int
}

// Entry is one cached internal node: a client-local routing copy of the
// node (layout.Internal.Routing) plus bookkeeping for eviction and targeted
// invalidation.
type Entry struct {
	// Addr is the node's disaggregated-memory address; validation failures
	// on nodes fetched through this entry invalidate it.
	Addr rdma.Addr
	// N is the routing copy, charged len(N.B) bytes. It is immutable after
	// insertion — updates replace the whole entry.
	N layout.Internal

	level  uint8
	pinned bool
	key    uint64 // lower fence, the skiplist key
	// chunks are the 8 MB chunks this entry references — its own node plus
	// every child — the index InvalidateChunk drops it through. The slice
	// views chunkStore when the refs fit inline (the common case: children
	// stripe across few servers), so admission allocates only the Entry.
	chunks     []alloc.ChunkID
	chunkStore [8]alloc.ChunkID

	lastUse atomic.Int64
	dead    atomic.Bool
	node    *slNode
	poolIdx int // index in the eviction pool, guarded by Cache.mu
}

// Level returns the tree level of the cached node.
func (e *Entry) Level() uint8 { return e.level }

// Cache is one compute server's unified index cache. All client threads of
// the CS share it; lookups are lock-free, mutations serialize on one mutex.
type Cache struct {
	levels   int // budgeted depth (0 = none)
	limit    int // budget in full-node units: Limit and the eviction clock
	budget   int // budgeted bytes, at least one node
	nodeSize int

	sl [MaxLevels + 1]*skiplist

	tick atomic.Int64

	mu      sync.Mutex
	pools   [MaxLevels + 1][]*Entry // evictable (budgeted) entries, per level
	bytes   [MaxLevels + 1]int      // routing bytes of each level's pool
	total   int                     // routing bytes across all pools
	pinned  []*Entry                // top-level entries, flushed wholesale on root change
	byAddr  map[rdma.Addr]*Entry
	byChunk map[alloc.ChunkID]map[*Entry]struct{}
	freq    [freqBuckets]uint8
	touches int
	rnd     rand.Source // guarded by mu

	rootMu    sync.RWMutex
	root      rdma.Addr
	rootLevel uint8

	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	invalids     atomic.Int64
	admitRejects atomic.Int64
}

// New creates a cache per the config.
func New(cfg Config) *Cache {
	budget := max(int(cfg.MaxBytes), cfg.NodeSize)
	levels := cfg.Levels
	if levels == 0 {
		levels = DefaultLevels
	}
	if levels < 0 {
		levels = 0
	}
	if levels > MaxLevels {
		levels = MaxLevels
	}
	c := &Cache{
		levels:   levels,
		limit:    budget / cfg.NodeSize,
		budget:   budget,
		nodeSize: cfg.NodeSize,
		byAddr:   make(map[rdma.Addr]*Entry),
		byChunk:  make(map[alloc.ChunkID]map[*Entry]struct{}),
		rnd:      rand.NewPCG(0x5eed, 0xfeed),
	}
	for i := range c.sl {
		c.sl[i] = newSkiplist()
	}
	return c
}

// Len returns the number of live budgeted entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.pools {
		n += len(p)
	}
	return n
}

// PinnedLen returns the number of pinned top-level entries.
func (c *Cache) PinnedLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pinned)
}

// Limit returns the byte budget in full-node units. Routing copies are
// smaller than a node, so Len can exceed it.
func (c *Cache) Limit() int { return c.limit }

// Levels returns the budgeted caching depth.
func (c *Cache) Levels() int { return c.levels }

// Hits returns the aggregate lookup-hit count.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the aggregate lookup-miss count.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Evictions returns the number of budget-pressure evictions.
func (c *Cache) Evictions() int64 { return c.evictions.Load() }

// Invalidations returns the number of entries dropped for staleness
// (validation failures, chunk migration, reclaimed-lock repairs).
func (c *Cache) Invalidations() int64 { return c.invalids.Load() }

// AdmissionRejects returns the number of inserts the frequency gate turned
// away under level pressure.
func (c *Cache) AdmissionRejects() int64 { return c.admitRejects.Load() }

// Root returns the cached root address and level (NilAddr when unknown).
func (c *Cache) Root() (rdma.Addr, uint8) {
	c.rootMu.RLock()
	defer c.rootMu.RUnlock()
	return c.root, c.rootLevel
}

// SetRoot records a (re)fetched root. A root change drops the pinned top
// entries — they belong to a stale top structure.
func (c *Cache) SetRoot(a rdma.Addr, level uint8) {
	c.rootMu.Lock()
	changed := a != c.root
	c.root, c.rootLevel = a, level
	c.rootMu.Unlock()
	if changed {
		c.FlushTop()
	}
}

// FlushTop discards every pinned top-level entry but keeps the root pointer.
// Clients call it when excessive B-link sibling walking signals that a
// pinned copy predates a split: the copy still passes fence/level validation
// (its fences were correct when taken) yet steers traversals one or more
// nodes left of their target.
func (c *Cache) FlushTop() {
	c.mu.Lock()
	victims := append([]*Entry(nil), c.pinned...)
	c.mu.Unlock()
	for _, e := range victims {
		c.drop(e, false)
	}
}

// Lookup returns the cached entry at the given tree level whose fence
// interval contains key, or nil on a miss at that level. The caller resolves
// the next hop via e.N.ChildFor(key) and must invalidate the entry (or the
// path through it) if the fetched node fails validation.
func (c *Cache) Lookup(key uint64, level uint8) *Entry {
	if level > MaxLevels {
		return nil
	}
	e := c.sl[level].floor(key)
	if e != nil && e.N.Covers(key) {
		e.lastUse.Store(c.tick.Add(1))
		c.hits.Add(1)
		return e
	}
	c.misses.Add(1)
	return nil
}

// Deepest returns the covering entry at the lowest tree level in
// [lo, hi] — the deepest cached point of the key's root-to-leaf path, where
// a traversal can resume. It does not touch the aggregate hit/miss
// counters: a descent consults it after its Lookup already counted the
// locate's outcome, and double counting would distort CacheStats' hit
// ratio (the per-level recorder counters credit resumes instead).
func (c *Cache) Deepest(key uint64, lo, hi uint8) *Entry {
	if hi > MaxLevels {
		hi = MaxLevels
	}
	for lvl := lo; lvl <= hi; lvl++ {
		if e := c.sl[lvl].floor(key); e != nil && e.N.Covers(key) {
			e.lastUse.Store(c.tick.Add(1))
			return e
		}
	}
	return nil
}

// share returns level lvl's slice of the byte budget, at least one node so
// that every level holds one entry: level 1 — whose misses
// cost a near-full descent — gets the largest share, each level above half
// the previous (2^(levels-lvl) weighting, normalized) over the budgeted
// levels below the pinned region, 1..min(Levels, rootLevel-2), so no share
// goes to a pinned level. An unknown root (level 0) keeps the full split.
func (c *Cache) share(lvl uint8) int {
	levels := c.levels
	if _, root := c.Root(); root > 0 && int(root)-2 < levels {
		levels = int(root) - 2
	}
	if levels <= 0 || int(lvl) > levels {
		return 0
	}
	num := 1 << (levels - int(lvl))
	den := (1 << levels) - 1
	return max(c.budget*num/den, c.nodeSize)
}

// Insert caches a routing copy of an internal node fetched during
// traversal. n stays the caller's: the copy is made only once the entry is
// admitted, so a rejected insert allocates nothing. rootLevel (the level of
// the traversal's root) defines the pinned region: nodes at rootLevel-1 and
// above are always admitted and never evicted; nodes at budgeted levels pass
// the admission gate. Inserting over an existing fence key replaces the old
// entry — a split's parent update refreshes the cached copy in O(1).
func (c *Cache) Insert(addr rdma.Addr, n layout.Internal, rootLevel uint8) {
	lvl := n.Level()
	if lvl == 0 || lvl > MaxLevels {
		return
	}
	pinned := rootLevel > 0 && lvl+1 >= rootLevel
	if !pinned && int(lvl) > c.levels {
		return // below the pinned region, beyond the budgeted depth
	}
	key := n.LowerFence()

	// Replacing an existing entry at the same fence key (a split shrank the
	// node, a separator landed, a repoint swung a child) does not grow the
	// cache, so it bypasses the admission gate — refreshes must never lose
	// to a stale copy.
	replacing := false
	if ex := c.sl[lvl].floor(key); ex != nil && ex.key == key && !ex.dead.Load() {
		replacing = true
	}
	if !pinned && !replacing {
		c.mu.Lock()
		full := c.bytes[lvl]+n.RoutingLen() > c.share(lvl)
		admit := !full || c.admitLocked(key)
		c.mu.Unlock()
		if !admit {
			c.admitRejects.Add(1)
			return
		}
	}

	n = n.Routing()
	e := &Entry{Addr: addr, N: n, level: lvl, pinned: pinned, key: key, poolIdx: -1}
	e.chunks = appendRefChunks(e.chunkStore[:0], addr, n)
	e.lastUse.Store(c.tick.Add(1))
	if old := c.sl[lvl].insert(e); old != nil {
		c.unindex(old)
	}
	c.mu.Lock()
	c.index(e)
	c.mu.Unlock()
	if pinned {
		return
	}
	// The level's budget share is a hard cap (within-level recency
	// eviction), and the total budget is the cross-level backstop
	// (level-weighted eviction).
	for c.overShare(lvl) {
		c.evictFrom(lvl, lvl)
	}
	for c.overBudget() {
		c.evictFrom(1, uint8(c.levels))
	}
}

// admitLocked is the frequency gate: a decaying touch-count sketch over
// lower-fence keys; an entry is admitted into a full level only once its key
// region has been inserted (i.e. traversed) repeatedly within the decay
// window, so one-shot traversals cannot thrash entries earning steady hits.
func (c *Cache) admitLocked(key uint64) bool {
	b := (key * 0x9e3779b97f4a7c15) >> 54 % freqBuckets
	if c.freq[b] < 0xff {
		c.freq[b]++
	}
	c.touches++
	if c.touches >= freqDecayInterval {
		c.touches = 0
		for i := range c.freq {
			c.freq[i] /= 2
		}
	}
	return c.freq[b] >= freqAdmitMin
}

// index registers e in its level's eviction pool (or the pinned list) and
// the address/chunk indexes. Caller holds mu. The entry became visible to
// lock-free readers at the skiplist insert, so a concurrent validation
// failure may already have dropped it — sl.remove marked it dead before its
// (no-op) unindex, both ends serialized on mu — and registering the corpse
// would leak a budget slot and shadow live byAddr entries.
func (c *Cache) index(e *Entry) {
	if e.dead.Load() {
		return
	}
	if e.pinned {
		e.poolIdx = len(c.pinned)
		c.pinned = append(c.pinned, e)
	} else {
		e.poolIdx = len(c.pools[e.level])
		c.pools[e.level] = append(c.pools[e.level], e)
		c.bytes[e.level] += len(e.N.B)
		c.total += len(e.N.B)
	}
	c.byAddr[e.Addr] = e
	for _, ck := range e.chunks {
		set := c.byChunk[ck]
		if set == nil {
			set = make(map[*Entry]struct{})
			c.byChunk[ck] = set
		}
		set[e] = struct{}{}
	}
}

// unindex removes e from the pool/pinned list and the address/chunk
// indexes.
func (c *Cache) unindex(e *Entry) {
	c.mu.Lock()
	c.unindexLocked(e)
	c.mu.Unlock()
}

func (c *Cache) unindexLocked(e *Entry) {
	list := &c.pools[e.level]
	if e.pinned {
		list = &c.pinned
	}
	i := e.poolIdx
	if i < 0 || i >= len(*list) || (*list)[i] != e {
		return
	}
	last := len(*list) - 1
	(*list)[i] = (*list)[last]
	(*list)[i].poolIdx = i
	*list = (*list)[:last]
	e.poolIdx = -1
	if !e.pinned {
		c.bytes[e.level] -= len(e.N.B)
		c.total -= len(e.N.B)
	}
	if c.byAddr[e.Addr] == e {
		delete(c.byAddr, e.Addr)
	}
	for _, ck := range e.chunks {
		if set := c.byChunk[ck]; set != nil {
			delete(set, e)
			if len(set) == 0 {
				delete(c.byChunk, ck)
			}
		}
	}
}

// appendRefChunks appends the distinct chunks an entry references — its own
// node plus every child pointer (the bulkload allocator stripes children
// across servers, so a node's children span few — but more than one —
// chunks). Walking ChildAt directly instead of materializing Separators
// keeps admission free of per-node slice allocations.
func appendRefChunks(dst []alloc.ChunkID, addr rdma.Addr, n layout.Internal) []alloc.ChunkID {
	dst = addChunk(dst, addr)
	dst = addChunk(dst, n.Leftmost())
	for i, cnt := 0, n.Count(); i < cnt; i++ {
		dst = addChunk(dst, n.ChildAt(i))
	}
	return dst
}

// addChunk appends a's chunk to dst unless already present.
func addChunk(dst []alloc.ChunkID, a rdma.Addr) []alloc.ChunkID {
	ck := alloc.ChunkOf(a)
	for _, have := range dst {
		if have == ck {
			return dst
		}
	}
	return append(dst, ck)
}

// overShare reports whether level lvl's bytes exceed its budget share.
func (c *Cache) overShare(lvl uint8) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes[lvl] > c.share(lvl)
}

// overBudget reports whether the budgeted entries exceed the byte budget.
func (c *Cache) overBudget() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total > c.budget
}

// sampleLocked picks one budgeted entry uniformly from levels [lo, hi].
// Caller holds mu and guarantees at least one entry exists there.
func (c *Cache) sampleLocked(lo, hi uint8) *Entry {
	n := 0
	for lvl := lo; lvl <= hi; lvl++ {
		n += len(c.pools[lvl])
	}
	i := int(c.rnd.Uint64() % uint64(n))
	for lvl := lo; lvl <= hi; lvl++ {
		if i < len(c.pools[lvl]) {
			return c.pools[lvl][i]
		}
		i -= len(c.pools[lvl])
	}
	return nil
}

// evictFrom applies power-of-two-choices over levels [lo, hi]: sample two
// budgeted entries uniformly and evict the one with the lower protection
// score — logical-LRU recency plus a per-level bonus of one full clock round
// per level of depth below the budgeted top, so a level-1 entry (a near-full
// descent to replace) outlives an equally-recent level-2 entry (one extra
// round trip). Within-level evictions (lo == hi) reduce to plain
// two-choice LRU.
func (c *Cache) evictFrom(lo, hi uint8) {
	c.mu.Lock()
	n := 0
	for lvl := lo; lvl <= hi; lvl++ {
		n += len(c.pools[lvl])
	}
	if n == 0 {
		c.mu.Unlock()
		return
	}
	a := c.sampleLocked(lo, hi)
	b := c.sampleLocked(lo, hi)
	if b == a && n > 1 {
		// Degenerate sample: choosing the same entry twice would evict it
		// regardless of recency; resample until distinct (n > 1 bounds the
		// expected tries at 2).
		for b == a {
			b = c.sampleLocked(lo, hi)
		}
	}
	victim := a
	if c.score(b) < c.score(a) {
		victim = b
	}
	c.unindexLocked(victim)
	c.mu.Unlock()
	c.sl[victim.level].remove(victim)
	c.evictions.Add(1)
}

// score is the eviction-protection score: recency plus level protection —
// one clock round (limit ticks, plus one so the bonus never ties away at
// tiny budgets) per level of depth below the budgeted top.
func (c *Cache) score(e *Entry) int64 {
	depth := int64(c.levels) - int64(e.level)
	if depth < 0 {
		depth = 0
	}
	return e.lastUse.Load() + depth*int64(c.limit+1)
}

// drop removes an entry, optionally counting it as a staleness
// invalidation; reports whether the entry was live.
func (c *Cache) drop(e *Entry, invalid bool) bool {
	if e == nil || e.dead.Load() {
		return false
	}
	if invalid {
		c.invalids.Add(1)
	}
	c.sl[e.level].remove(e)
	c.unindex(e)
	return true
}

// Invalidate drops an entry that steered a client to a wrong or freed node,
// reporting whether it was still live.
func (c *Cache) Invalidate(e *Entry) bool { return c.drop(e, true) }

// InvalidateAddr drops the entry caching the node at a, if any — the O(1)
// hook for targeted repairs: a reclaimed lock's holder may have died
// mid-write, so the post-reclaim validated read drops the possibly-stale
// copy instead of scanning for it.
func (c *Cache) InvalidateAddr(a rdma.Addr) bool {
	c.mu.Lock()
	e := c.byAddr[a]
	c.mu.Unlock()
	if e == nil {
		return false
	}
	c.drop(e, true)
	return true
}

// InvalidatePath drops the poisoned path suffix after a speculative read
// failed validation: the failing entry itself (any level, pinned included —
// a stale pinned entry must not survive to re-steer the retry) plus the
// covering entries at the budgeted levels above it, which are suspects for
// the same staleness. O(levels), not a scan. Returns the number of entries
// dropped.
func (c *Cache) InvalidatePath(key uint64, failed *Entry) int {
	dropped := 0
	if c.Invalidate(failed) {
		dropped++
	}
	for lvl := failed.level + 1; int(lvl) <= c.levels && lvl <= MaxLevels; lvl++ {
		if e := c.sl[lvl].floor(key); e != nil && !e.dead.Load() && e.N.Covers(key) {
			if c.drop(e, true) {
				dropped++
			}
		}
	}
	return dropped
}

// InvalidateChunk drops every entry that lives in — or steers into — the
// given chunk, in O(affected) through the chunk index: the migration engine
// calls it after moving a chunk so readers stop resolving through addresses
// that just died. Returns the number of entries dropped.
func (c *Cache) InvalidateChunk(ck alloc.ChunkID) int {
	c.mu.Lock()
	set := c.byChunk[ck]
	victims := make([]*Entry, 0, len(set))
	for e := range set {
		victims = append(victims, e)
	}
	c.mu.Unlock()
	for _, e := range victims {
		c.drop(e, true)
	}
	return len(victims)
}
