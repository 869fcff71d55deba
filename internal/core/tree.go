package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sherman/internal/alloc"
	"sherman/internal/cache"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/transport"
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
	// Empty tree: one leaf covering the whole key space. An empty load
	// cannot fail.
	_ = t.Bulkload(nil)
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

// bulkSlab is how many nodes Bulkload builds before it stores them: each
// node is built in place in one of this many recycled slots, and a full slab
// is posted as one RawWrite — 256 KiB waves at 1 KiB nodes, and one buffer
// for the whole build instead of one per node.
const bulkSlab = 256

// bulkShare is the fewest slab slots, and the fewest leaves, a leaf worker
// is given: its waves still carry many nodes per frame, and its leaves are
// worth a goroutine.
const bulkShare = 32

// bulkWorkers is how many goroutines build a leaf level of n leaves: one per
// P, as long as each gets bulkShare leaves and bulkShare slots.
func bulkWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), bulkSlab/bulkShare, n/bulkShare))
}

// slab stages Bulkload's nodes. A slot is handed out again only after the
// flush that posted it: the posted wave holds a copy of its nodes.
type slab struct {
	cl   Backend
	size int
	buf  []byte
	ops  []transport.WriteOp
}

func newSlab(cl Backend, nodeSize, slots int) *slab {
	return &slab{cl: cl, size: nodeSize, buf: make([]byte, slots*nodeSize), ops: make([]transport.WriteOp, 0, slots)}
}

// share returns slots [lo, hi) of an idle slab as a slab of their own, so
// that leaf workers build side by side in the one buffer.
func (s *slab) share(lo, hi int) *slab {
	return &slab{cl: s.cl, size: s.size, buf: s.buf[lo*s.size : hi*s.size], ops: s.ops[lo:lo:hi]}
}

// next returns the slot the node at a is built in, storing the slab first
// when every slot is taken.
func (s *slab) next(a transport.Addr) []byte {
	if len(s.ops) == cap(s.ops) {
		s.flush()
	}
	off := len(s.ops) * s.size
	slot := s.buf[off : off+s.size : off+s.size]
	s.ops = append(s.ops, transport.WriteOp{Addr: a, Data: slot})
	return slot
}

// flush posts every node built since the last flush with one RawWrite.
func (s *slab) flush() {
	s.cl.RawWrite(s.ops...)
	s.ops = s.ops[:0]
}

// ErrReservedKey rejects key 0, the tree's deleted-entry sentinel (§4.4).
var ErrReservedKey = errors.New("sherman: key 0 is reserved")

// Bulkload replaces the tree contents with the given key-value pairs, which
// must be sorted by strictly increasing key with no key 0; otherwise it
// returns an error and changes nothing. Leaves are packed to the configured
// fill factor (80% in the paper, §5.1.3), and every node's address is
// allocated in one sequential pass: the leaves of each future level-1 node
// as one run on one memory server (alloc.Bulk.AllocRun), runs rotating over
// the servers, and the internal nodes striped across them. A scan batch,
// which reads the children of one level-1 node, thus reads one server, and
// a tree small enough for one level-1 node lives on one server. Nodes are
// built in a recycled slab and posted a slab at a time: the leaf level by
// bulkWorkers goroutines, each building a contiguous run of leaves in its
// own share of the slab, and the levels above in the whole slab. A worker
// goes on building while its waves are in flight; SetRoot awaits them all.
// Call before starting client threads.
func (t *Tree) Bulkload(kvs []layout.KV) error {
	for i := range kvs {
		if kvs[i].Key == 0 {
			return fmt.Errorf("%w: bulkload index %d", ErrReservedKey, i)
		}
		if i > 0 && kvs[i].Key <= kvs[i-1].Key {
			return fmt.Errorf("sherman: bulkload keys not strictly increasing at index %d", i)
		}
	}
	f := &t.cfg.Format
	b := t.cl.NewBulk()

	perLeaf := int(float64(f.LeafCap) * t.cfg.bulkFill())
	if perLeaf < 1 {
		perLeaf = 1
	}
	if perLeaf > f.LeafCap {
		perLeaf = f.LeafCap
	}
	perInt := int(float64(f.IntCap) * t.cfg.bulkFill())
	if perInt < 2 {
		perInt = 2
	}

	// Build the leaf level.
	nLeaves := (len(kvs) + perLeaf - 1) / perLeaf
	if nLeaves == 0 {
		nLeaves = 1
	}
	// Every level above the leaves has at most half as many nodes as the one
	// below, so a small tree gets a small slab.
	s := newSlab(t.cl, f.NodeSize, min(bulkSlab, 2*nLeaves))
	leafAddrs := make([]transport.Addr, nLeaves)
	bounds := make([]uint64, nLeaves) // lower fence of each leaf
	for lo := 0; lo < nLeaves; lo += perInt {
		b.AllocRun(f.NodeSize, leafAddrs[lo:min(lo+perInt, nLeaves)])
	}
	// Worker w of nw builds leaves [w*nLeaves/nw, (w+1)*nLeaves/nw) in slots
	// [w*slots/nw, (w+1)*slots/nw) and stores its last wave before it ends.
	nw, slots := bulkWorkers(nLeaves), cap(s.ops)
	build := func(w int) {
		sh := s.share(w*slots/nw, (w+1)*slots/nw)
		for i := w * nLeaves / nw; i < (w+1)*nLeaves/nw; i++ {
			lo := i * perLeaf
			hi := min(lo+perLeaf, len(kvs))
			var lower, upper uint64 = 0, layout.NoUpperBound
			if i > 0 {
				lower = kvs[lo].Key
			}
			if hi < len(kvs) {
				upper = kvs[hi].Key
			}
			leaf := layout.NewLeafIn(*f, sh.next(leafAddrs[i]), lower, upper)
			if i+1 < nLeaves {
				leaf.SetSibling(leafAddrs[i+1])
			}
			leaf.SetEntries(kvs[lo:hi])
			if f.Mode == layout.Checksum {
				leaf.UpdateChecksum()
			}
			bounds[i] = lower
		}
		sh.flush()
	}
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			build(w)
		}()
	}
	build(0)
	wg.Wait()

	// Build internal levels bottom-up until a single root remains.
	level := uint8(0)
	addrs, lowers := leafAddrs, bounds
	var seps []layout.Sep
	for len(addrs) > 1 {
		level++
		n := (len(addrs) + perInt - 1) / perInt
		newAddrs := make([]transport.Addr, n)
		upLowers := make([]uint64, n)
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
			node := layout.NewInternalIn(*f, s.next(newAddrs[i]), level, lower, upper)
			if i+1 < n {
				node.SetSibling(newAddrs[i+1])
			}
			node.SetLeftmost(addrs[lo])
			seps = seps[:0]
			for j := lo + 1; j < hi; j++ {
				seps = append(seps, layout.Sep{Key: lowers[j], Child: addrs[j]})
			}
			node.SetSeparators(seps)
			if f.Mode == layout.Checksum {
				node.UpdateChecksum()
			}
			upLowers[i] = lower
		}
		addrs, lowers = newAddrs, upLowers
	}
	// SetRoot is the waves' barrier: the root pointer is published only
	// once every node it reaches is stored and acknowledged.
	s.flush()
	t.cl.SetRoot(addrs[0], level)
	return nil
}

// Validate walks the whole tree with raw reads and checks structural
// invariants: fence nesting, sorted separators and (in Checksum mode)
// sorted leaves, sibling linkage, level consistency, and that every
// bulkloaded/inserted key is reachable. Intended for tests; not concurrent
// safe with writers.
func (t *Tree) Validate() error {
	root, n := t.rawRoot()
	w := walk{t: t}
	return w.validate(root, n, 0, n.Level(), 0, layout.NoUpperBound)
}

// rawRoot reads the root node. The superblock's level field is only a hint
// (the pointer CAS and the hint write are separate verbs; a client can crash
// between them): the node's own level field is authoritative.
func (t *Tree) rawRoot() (transport.Addr, layout.Node) {
	root, _ := t.cl.RawRoot()
	nb := make([]byte, t.cfg.Format.NodeSize)
	t.cl.RawRead(transport.ReadOp{Addr: root, Buf: nb})
	return root, t.cfg.Format.View(nb)
}

// walk is the read scratch of one whole-tree walk (Validate, Stats,
// Compact's collect): one ReadOp slice and one buffer per recursion depth,
// each grown to the widest node met at that depth, so a walk allocates
// about height nodes' worth of children however many nodes it visits. The
// scratch is indexed by recursion depth, not by the node's level byte, so
// a corrupt level cannot alias a parent's buffer while its loop still
// reads it.
type walk struct {
	t    *Tree
	ops  [][]transport.ReadOp
	bufs [][]byte
}

// children reads every child of internal node n, leftmost first, with one
// RawRead into depth's scratch — so a whole-tree walk costs one batch per
// internal node. The result is valid until the walk next reads children at
// the same depth.
func (w *walk) children(depth int, n layout.Node) []transport.ReadOp {
	if depth == len(w.ops) {
		w.ops = append(w.ops, nil)
		w.bufs = append(w.bufs, nil)
	}
	in := layout.AsInternal(n)
	size := w.t.cfg.Format.NodeSize
	k := in.Count() + 1
	if cap(w.ops[depth]) < k {
		w.ops[depth] = make([]transport.ReadOp, k)
		w.bufs[depth] = make([]byte, k*size)
	}
	ops, buf := w.ops[depth][:k], w.bufs[depth]
	for i := range ops {
		ops[i].Addr = in.Leftmost()
		if i > 0 {
			ops[i].Addr = in.ChildAt(i - 1)
		}
		ops[i].Buf = buf[i*size : (i+1)*size]
	}
	w.t.cl.RawRead(ops...)
	return ops
}

func (w *walk) validate(a transport.Addr, n layout.Node, depth int, level uint8, lower, upper uint64) error {
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
		sorted := w.t.cfg.Format.Mode == layout.Checksum
		if k, ok := keyOutside(layout.AsLeaf(n), sorted, lower, upper); ok {
			return fmt.Errorf("leaf %v key %d outside [%d,%d)", a, k, lower, upper)
		}
		return nil
	}
	in := layout.AsInternal(n)
	cnt := in.Count()
	prev := lower
	for i := 0; i < cnt; i++ {
		k := in.KeyAt(i)
		if k <= prev {
			return fmt.Errorf("internal %v separators unsorted at %d", a, i)
		}
		prev = k
	}
	// Child i covers [separator i-1, separator i): the leftmost child from
	// the node's lower fence, the last one up to its upper fence.
	for i, c := range w.children(depth, n) {
		lo, hi := lower, upper
		if i > 0 {
			lo = in.KeyAt(i - 1)
		}
		if i < cnt {
			hi = in.KeyAt(i)
		}
		if err := w.validate(c.Addr, w.t.cfg.Format.View(c.Buf), depth+1, level-1, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// keyOutside reads leaf's live keys in place, the set Entries yields, and
// reports the first one in Entries' order outside [lower, upper). A sorted
// (Checksum mode) leaf's live keys are its first Count() slots, in slot
// order; otherwise they are the non-zero keys of all Cap() slots, and the
// first in key order is the smallest.
func keyOutside(leaf layout.Leaf, sorted bool, lower, upper uint64) (uint64, bool) {
	n := leaf.Cap()
	if sorted {
		n = leaf.Count()
	}
	bad, found := uint64(0), false
	for i := 0; i < n; i++ {
		k := leaf.Key(i)
		if (!sorted && k == 0) || (k >= lower && (upper == layout.NoUpperBound || k < upper)) {
			continue
		}
		if sorted {
			return k, true
		}
		if !found || k < bad {
			bad, found = k, true
		}
	}
	return bad, found
}
