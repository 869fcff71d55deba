package core

import (
	"fmt"

	"sherman/internal/alloc"
	"sherman/internal/cache"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/rdma"
)

// Tree is one distributed B+Tree living in a cluster's disaggregated memory.
// All methods on Tree itself are setup-time; concurrent index operations go
// through per-thread Handles.
type Tree struct {
	cl  Backend
	cfg Config

	locks *hocl.Manager

	// Per compute server: the unified multi-level index cache (§4.2.3
	// generalized — pinned top levels plus the budgeted lower levels).
	caches []*cache.Cache
}

// New creates an empty tree (a single empty leaf as root) in the cluster.
func New(cl Backend, cfg Config) *Tree {
	t := &Tree{cl: cl, cfg: cfg}
	t.locks = cl.NewLockManager(hocl.Config{Mode: cfg.Locks, LocksPerMS: cfg.LocksPerMS})
	for i := 0; i < cl.NumCS(); i++ {
		t.caches = append(t.caches, newCSCache(cfg))
	}
	// Failed-over chunks must stop steering cached traversals into the dead
	// server; the promotion listener purges them through the same O(affected)
	// per-chunk invalidation migration uses.
	cl.OnChunkInvalidate(func(ck alloc.ChunkID) { t.InvalidateChunk(ck) })
	// Empty tree: one leaf covering the whole key space.
	b := cl.NewBulk()
	rootAddr := b.Alloc(cfg.Format.NodeSize)
	leaf := layout.NewLeaf(cfg.Format, 0, layout.NoUpperBound)
	if cfg.Format.Mode == layout.Checksum {
		leaf.UpdateChecksum()
	}
	cl.RawWrite(rootAddr, leaf.B)
	cl.SetRoot(rootAddr, 0)
	return t
}

// Config returns the tree's configuration.
func (t *Tree) Config() Config { return t.cfg }

// LockStats exposes HOCL counters for reports.
func (t *Tree) LockStats() *hocl.Stats { return &t.locks.Stats }

// Cache returns compute server cs's index cache (for hit-ratio reports).
func (t *Tree) Cache(cs int) *cache.Cache { return t.caches[cs] }

// newCSCache builds one compute server's index cache per the config.
func newCSCache(cfg Config) *cache.Cache {
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = 64 << 20
	}
	return cache.New(cache.Config{
		MaxBytes: cacheBytes,
		NodeSize: cfg.Format.NodeSize,
		Levels:   cfg.CacheLevels,
	})
}

// Bulkload replaces the tree contents with the given key-value pairs, which
// must be sorted by strictly increasing key with no key 0. Leaves are packed
// to the configured fill factor (80% in the paper, §5.1.3) and spread across
// memory servers chunk by chunk. Call before starting client threads.
func (t *Tree) Bulkload(kvs []layout.KV) {
	for i := range kvs {
		if kvs[i].Key == 0 {
			panic("core: key 0 is reserved")
		}
		if i > 0 && kvs[i].Key <= kvs[i-1].Key {
			panic(fmt.Sprintf("core: bulkload keys not strictly sorted at %d", i))
		}
	}
	f := t.cfg.Format
	b := t.cl.NewBulk()

	perLeaf := int(float64(f.LeafCap) * t.cfg.bulkFill())
	if perLeaf < 1 {
		perLeaf = 1
	}
	if perLeaf > f.LeafCap {
		perLeaf = f.LeafCap
	}

	// Build the leaf level.
	var leafAddrs []rdma.Addr
	var bounds []uint64 // lower fence of each leaf
	nLeaves := (len(kvs) + perLeaf - 1) / perLeaf
	if nLeaves == 0 {
		nLeaves = 1
	}
	for i := 0; i < nLeaves; i++ {
		leafAddrs = append(leafAddrs, b.Alloc(f.NodeSize))
	}
	for i := 0; i < nLeaves; i++ {
		lo := i * perLeaf
		hi := lo + perLeaf
		if hi > len(kvs) {
			hi = len(kvs)
		}
		var lower, upper uint64 = 0, layout.NoUpperBound
		if i > 0 {
			lower = kvs[lo].Key
		}
		if hi < len(kvs) {
			upper = kvs[hi].Key
		}
		leaf := layout.NewLeaf(f, lower, upper)
		if i+1 < nLeaves {
			leaf.SetSibling(leafAddrs[i+1])
		}
		leaf.SetEntries(kvs[lo:hi])
		if f.Mode == layout.Checksum {
			leaf.UpdateChecksum()
		}
		t.cl.RawWrite(leafAddrs[i], leaf.B)
		bounds = append(bounds, lower)
	}

	// Build internal levels bottom-up until a single root remains.
	level := uint8(0)
	addrs, lowers := leafAddrs, bounds
	perInt := int(float64(f.IntCap) * t.cfg.bulkFill())
	if perInt < 2 {
		perInt = 2
	}
	for len(addrs) > 1 {
		level++
		var upAddrs []rdma.Addr
		var upLowers []uint64
		n := (len(addrs) + perInt - 1) / perInt
		newAddrs := make([]rdma.Addr, n)
		for i := range newAddrs {
			newAddrs[i] = b.Alloc(f.NodeSize)
		}
		for i := 0; i < n; i++ {
			lo := i * perInt
			hi := lo + perInt
			if hi > len(addrs) {
				hi = len(addrs)
			}
			var lower, upper uint64 = 0, layout.NoUpperBound
			if i > 0 {
				lower = lowers[lo]
			}
			if hi < len(addrs) {
				upper = lowers[hi]
			}
			node := layout.NewInternal(f, level, lower, upper)
			if i+1 < n {
				node.SetSibling(newAddrs[i+1])
			}
			node.SetLeftmost(addrs[lo])
			seps := make([]layout.Sep, 0, hi-lo-1)
			for j := lo + 1; j < hi; j++ {
				seps = append(seps, layout.Sep{Key: lowers[j], Child: addrs[j]})
			}
			node.SetSeparators(seps)
			if f.Mode == layout.Checksum {
				node.UpdateChecksum()
			}
			t.cl.RawWrite(newAddrs[i], node.B)
			upAddrs = append(upAddrs, newAddrs[i])
			upLowers = append(upLowers, lower)
		}
		addrs, lowers = upAddrs, upLowers
	}
	t.cl.SetRoot(addrs[0], level)
}

// Validate walks the whole tree with raw reads and checks structural
// invariants: fence nesting, sorted separators and (in Checksum mode)
// sorted leaves, sibling linkage, level consistency, and that every
// bulkloaded/inserted key is reachable. Intended for tests; not concurrent
// safe with writers.
func (t *Tree) Validate() error {
	rootAddr, level := t.rawRoot()
	return t.validateNode(rootAddr, level, 0, layout.NoUpperBound)
}

func (t *Tree) rawRoot() (rdma.Addr, uint8) {
	// The superblock's level field is only a hint (the pointer CAS and the
	// hint write are separate verbs; a client can crash between them): the
	// node's own level field is authoritative.
	root, _ := t.cl.RawRoot()
	nb := make([]byte, t.cfg.Format.NodeSize)
	t.cl.RawRead(root, nb)
	return root, layout.ViewNode(t.cfg.Format, nb).Level()
}

func (t *Tree) validateNode(a rdma.Addr, level uint8, lower, upper uint64) error {
	f := t.cfg.Format
	buf := make([]byte, f.NodeSize)
	t.cl.RawRead(a, buf)
	n := layout.ViewNode(f, buf)
	if !n.Alive() {
		return fmt.Errorf("node %v is freed but reachable", a)
	}
	if n.Level() != level {
		return fmt.Errorf("node %v level %d, want %d", a, n.Level(), level)
	}
	if n.LowerFence() != lower || n.UpperFence() != upper {
		return fmt.Errorf("node %v fences [%d,%d), want [%d,%d)", a, n.LowerFence(), n.UpperFence(), lower, upper)
	}
	if level == 0 {
		leaf := layout.AsLeaf(n)
		for _, kv := range leaf.Entries() {
			if !(kv.Key >= lower && (upper == layout.NoUpperBound || kv.Key < upper)) {
				return fmt.Errorf("leaf %v key %d outside [%d,%d)", a, kv.Key, lower, upper)
			}
		}
		return nil
	}
	in := layout.AsInternal(n)
	seps := in.Separators()
	prev := lower
	for i, s := range seps {
		if s.Key <= prev {
			return fmt.Errorf("internal %v separators unsorted at %d", a, i)
		}
		prev = s.Key
	}
	childLower := lower
	childUpper := upper
	if len(seps) > 0 {
		childUpper = seps[0].Key
	}
	if err := t.validateNode(in.Leftmost(), level-1, childLower, childUpper); err != nil {
		return err
	}
	for i, s := range seps {
		cu := upper
		if i+1 < len(seps) {
			cu = seps[i+1].Key
		}
		if err := t.validateNode(s.Child, level-1, s.Key, cu); err != nil {
			return err
		}
	}
	return nil
}
