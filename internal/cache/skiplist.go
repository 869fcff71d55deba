// Package cache implements the compute-server-side index cache (§4.2.3):
// copies of level-1 internal nodes (the parents of leaves) kept in a
// concurrent skiplist with lock-free search, evicted by power-of-two-choices
// on least-recent use, plus the always-cached top two tree levels.
//
// The cache needs no coherence protocol: internal nodes only carry location
// information, and every fetched node is validated against its fence keys
// and level — a stale cache entry steers the client to a node whose fences
// reject the key, which invalidates the entry and retraverses (§4.2.3).
package cache

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

const maxHeight = 16

// An Entry is its own skiplist tower (Entry.next), so admitting one
// allocates only the Entry and its routing copy. Readers traverse next
// pointers with atomic loads only; inserts and unlinks serialize on the list
// mutex (misses and evictions are rare compared to hits, which is the case
// the structure is optimized for).

// skiplist maps lower-fence keys to cache entries, supporting a
// predecessor-or-equal query without locks.
type skiplist struct {
	head *Entry // sentinel tower, key 0, never returned
	mu   sync.Mutex
	rnd  rand.Source // guarded by mu
	size atomic.Int64
}

func newSkiplist() *skiplist {
	return &skiplist{head: new(Entry), rnd: rand.NewPCG(0xcafe, 0xf00d)}
}

// seek returns the last entry with key <= target (key < target when strict;
// the result may be the head) and, when preds is non-nil, fills the
// predecessor at every level for insertion/unlinking.
func (s *skiplist) seek(target uint64, strict bool, preds *[maxHeight]*Entry) *Entry {
	x := s.head
	for lvl := maxHeight - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil || nxt.key > target || (strict && nxt.key == target) {
				break
			}
			x = nxt
		}
		if preds != nil {
			preds[lvl] = x
		}
	}
	return x
}

// floor returns the live entry with the greatest key <= target, skipping
// entries that were marked dead but not yet unlinked.
func (s *skiplist) floor(target uint64) *Entry {
	x := s.seek(target, false, nil)
	for x != s.head {
		if !x.dead.Load() {
			return x
		}
		if r := x.next[0].Load(); r != nil && r.key == x.key && !r.dead.Load() {
			return r // x was replaced in place (see insert)
		}
		// Dead entry: step strictly back with a fresh seek below its key.
		x = s.seek(x.key, true, nil)
	}
	return nil
}

// insert adds e at e.key (the node's lower fence), replacing the entry
// already there: e takes its place at every level, and the old tower's
// bottom link is pointed at e before the old entry reads dead, so a
// lock-free reader standing on it finds e, as it would have found an entry
// swapped into a shared tower. It returns the entry that was displaced, if
// any.
func (s *skiplist) insert(e *Entry) *Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [maxHeight]*Entry
	s.seek(e.key, true, &preds)
	old := preds[0].next[0].Load()
	if old != nil && old.key != e.key {
		old = nil
	}
	h := 1
	for r := s.rnd.Uint64(); h < maxHeight && r&1 == 1; r >>= 1 {
		h++
	}
	for lvl := 0; lvl < maxHeight; lvl++ {
		succ := preds[lvl].next[lvl].Load()
		if old != nil && succ == old {
			succ = old.next[lvl].Load()
			if lvl >= h {
				preds[lvl].next[lvl].Store(succ) // unlink the old tower above e's
			}
		}
		if lvl < h {
			e.next[lvl].Store(succ)
		}
	}
	for lvl := 0; lvl < h; lvl++ {
		preds[lvl].next[lvl].Store(e)
	}
	if old == nil {
		s.size.Add(1)
		return nil
	}
	old.next[0].Store(e)
	if !old.dead.Swap(true) {
		return old
	}
	return nil
}

// remove marks e dead and unlinks its tower.
func (s *skiplist) remove(e *Entry) {
	e.dead.Store(true)
	s.mu.Lock()
	defer s.mu.Unlock()
	var preds [maxHeight]*Entry
	s.seek(e.key, true, &preds)
	if preds[0].next[0].Load() != e {
		return // already unlinked, or replaced by a newer entry for the same fence
	}
	for lvl := 0; lvl < maxHeight; lvl++ {
		if preds[lvl].next[lvl].Load() == e {
			preds[lvl].next[lvl].Store(e.next[lvl].Load())
		}
	}
	s.size.Add(-1)
}
