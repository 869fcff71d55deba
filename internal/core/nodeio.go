package core

import (
	"fmt"

	"sherman/internal/cache"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// This file is the shared node-I/O + traversal layer: every data path —
// point lookups, locked writes, parent-separator insertion, range scans and
// the batch executors — resolves tree nodes through the two loops below
// instead of carrying its own copy of the move-right / stale-steering /
// lock-coupling logic. The loops encode the B-link protocol of §4.2:
// a traversal may land left of its key after concurrent splits (follow the
// sibling chain right), on a freed or repurposed node (recover from stale
// steering), and — for writes — must hold at most one node lock at any time
// (unlock the current node before locking its sibling, §4.3 [52]).
//
// Both loops are cache-first against the unified multi-level index cache:
// a traversal resumes at the deepest cached point of the key's path — a
// level-1 hit issues the leaf read immediately (the speculative leaf-direct
// jump), a level-2 hit restarts one read above the leaves, and so on up to
// the pinned top levels. Every jump is speculative: the fetched node is
// validated (liveness, level, fence keys), and a failure invalidates the
// poisoned path suffix and falls back to a top-down descent. The same
// validate-or-fall-back mechanism absorbs forwarding chases of migrated
// nodes (core.ErrMoved's read-side analogue).

// intent selects how seek interacts with the target node.
type intent int

const (
	// intentRead seeks lock-free: the node is fetched with a consistency-
	// validated read (version pair or checksum) and returned unlocked.
	intentRead intent = iota
	// intentWrite seeks under lock coupling: the target is locked before
	// the validating read, and moving right releases the current lock
	// before acquiring the sibling's.
	intentWrite
)

// seekResult is the node a seek landed on. The guard is the held lock for
// intentWrite seeks and the zero Guard for intentRead.
type seekResult struct {
	addr transport.Addr
	n    layout.Node
	g    hocl.Guard
}

// specFail records a cached steering entry that failed validation: the
// entry is dropped along with the covering entries above it on the key's
// path (the poisoned suffix — whatever installed the stale child likely
// installed its stale parents too), and the traversal falls back to a
// top-down descent. level is the seek's target level: only a leaf seek
// steered by a level-1 entry counts as a failed speculative leaf-direct
// read (matching where SpecReads are counted), so SpecSuccessRate stays a
// true ratio.
func (h *Handle) specFail(key uint64, level uint8, ce *cache.Entry) {
	if level == 0 && ce.Level() == 1 {
		h.Rec.SpecFails++
	}
	h.Rec.CacheInvalidations += int64(h.cache.InvalidatePath(key, ce))
}

// seek drives the shared move-right / stale-steering loop at one level of
// the tree: starting from the steering hint addr (with ce the index-cache
// entry that produced it, nil otherwise), it locks (for intentWrite) and
// reads the node, validates liveness, level and fences, and either returns
// the covering node, follows the B-link sibling chain right, or recovers
// from stale steering.
//
// Stale recovery differs by level: level-0 seeks re-traverse from the root
// internally and always make progress, while level>0 seeks return ok=false
// so the caller can re-resolve its target from a fresh root (the parent
// level of a split is not known to the descent helper). ok=false at level 0
// happens only for read seeks whose sibling walk ran off the right edge —
// the key cannot exist. A level-0 write seek finding a finite upper fence
// with no sibling panics: the write-back protocol never produces that
// state, so it is structural corruption, not staleness.
//
// retries, when non-nil, accumulates consistency-check re-reads (the
// Figure 14(a) metric). hops, when non-nil, is the caller's sibling-hop
// budget — one logical operation keeps one counter across its seeks so the
// stale-top-cache flush heuristic (noteSiblingHop) sees the whole walk.
func (h *Handle) seek(key uint64, level uint8, in intent, addr transport.Addr, ce *cache.Entry, buf []byte, retries, hops *int) (seekResult, bool) {
	var localHops int
	if hops == nil {
		hops = &localHops
	}
	for {
		var g hocl.Guard
		read := false
		if in == intentWrite {
			// The acquire doorbell: where the fabric can post the lock CAS
			// and the node READ together (hocl decides), read reports that
			// buf already holds the node as of the acquisition.
			g, read = h.t.locks.LockRead(h.C, addr, buf, h.t.cfg.AcquireDoorbell)
			if g.HandedOver() {
				h.Rec.Handovers++
			}
			if g.Reclaimed() {
				// The previous holder crashed mid-operation; the validating
				// read below re-establishes the node's consistency (the
				// two-level version pair or checksum) before any write. Any
				// cached copy of the node predates the crash repair: drop it
				// by address — O(1), no scan.
				h.Rec.Reclaims++
				if h.cache.InvalidateAddr(addr) {
					h.Rec.CacheInvalidations++
				}
			}
		}
		var n layout.Node
		r := 0
		if read {
			n = h.t.cfg.Format.View(buf)
		}
		if !read || !n.Consistent() {
			n, r = h.readNode(addr, buf)
		}
		if retries != nil {
			*retries += r
		}
		if !n.Alive() || n.Level() != level || key < n.LowerFence() {
			// Stale steering: the node was freed, repurposed at another
			// level, migrated, or lies right of the key.
			if in == intentWrite {
				h.unlockWrite(g, nil)
			}
			if ce != nil {
				h.specFail(key, level, ce)
				ce = nil
			}
			if !n.Alive() {
				if fwd, ok := h.chase(addr); ok {
					// The node migrated: retry at its relocated address.
					// One hop suffices unless that data has since migrated
					// again (each round of this loop then chases one more
					// chunk generation); a dead un-forwarded copy falls
					// through to the normal stale handling below.
					addr = fwd
					continue
				}
			}
			if level > 0 {
				return seekResult{}, false
			}
			addr, ce = h.traverseToLeaf(key)
			continue
		}
		if n.UpperFence() != layout.NoUpperBound && key >= n.UpperFence() {
			sib := n.Sibling()
			if in == intentWrite {
				h.unlockWrite(g, nil)
			}
			if sib.IsNil() {
				if level == 0 && in == intentWrite {
					panic(fmt.Sprintf("core: rightmost leaf %v has finite upper fence", addr))
				}
				return seekResult{}, false
			}
			h.noteSiblingHop(hops)
			addr = sib
			// The steered node validated (alive, right level, covering
			// lower fence) — the speculation succeeded; the entry is merely
			// outdated about where the key's range ends, which the B-link
			// walk absorbs. A later dead sibling is not a speculation
			// failure, so drop the handle here.
			ce = nil
			continue
		}
		return seekResult{addr: addr, n: n, g: g}, true
	}
}

// descend walks internal levels down to the target level, following sibling
// pointers when a node's fences exclude the key and restarting from a fresh
// root when steering proves stale. It is cache-first: each round resumes at
// the deepest cached point of the key's path below the root (pinned top
// entries included), so a warm cache skips the upper levels entirely; the
// jump is validated at the next read, and a failure invalidates the
// poisoned path suffix and retries once cache-free. Internal nodes read on
// the way are offered to the cache (admission-gated by level). descend
// returns the address of the level `target` node whose fence range covered
// the key at read time; the caller re-validates under its own intent via
// seek. When the cached entry sat directly above the target, the returned
// address is its child pointer, taken on faith with no validating read —
// the entry is returned as the steering handle so the caller's seek can
// invalidate it (via specFail) if the speculation proves stale; a nil
// entry means the address came from a validated read.
func (h *Handle) descend(key uint64, target uint8) (transport.Addr, *cache.Entry) {
	root, rootLvl := h.cache.Root()
	if root.IsNil() || rootLvl < target {
		root, rootLvl = h.refreshRoot()
	}
	useCache := true
	for {
		addr, lvl := root, rootLvl
		var jumped *cache.Entry
		if useCache && rootLvl > target {
			if e := h.cache.Deepest(key, target+1, rootLvl); e != nil {
				// Resume below the deepest cached node of the path: consume
				// the local copy (no verbs) and jump to its child.
				h.C.Step(h.tm.LocalStepNS)
				h.Rec.CacheLevelHits[stats.CacheLevelIdx(e.Level())]++
				if target == 0 && e.Level() == 1 {
					// The jump hands the caller a leaf address straight from
					// a cached level-1 parent: a speculative leaf-direct
					// read, same as locateLeaf's Lookup path.
					h.Rec.SpecReads++
				}
				child, _ := e.N.ChildFor(key)
				addr, lvl = child, e.Level()-1
				jumped = e
			}
		}
		ok := true
		for lvl > target {
			n, _ := h.readNode(addr, h.nodeBuf)
			if !n.Alive() || n.Level() != lvl || key < n.LowerFence() {
				// Freed, repurposed or migrated node, or we are left of its
				// range: chase a migrated node to its new home; otherwise
				// the steering was stale — invalidate the cached path that
				// produced it and restart from a fresh root.
				if !n.Alive() {
					if h.cache.InvalidateAddr(addr) {
						h.Rec.CacheInvalidations++
					}
					if fwd, chased := h.chase(addr); chased {
						addr = fwd
						continue
					}
				}
				if jumped != nil {
					h.specFail(key, lvl, jumped)
					useCache = false
				}
				ok = false
				break
			}
			if n.UpperFence() != layout.NoUpperBound && key >= n.UpperFence() {
				// Move right along the B-link chain (level unchanged).
				sib := n.Sibling()
				if sib.IsNil() {
					ok = false
					break
				}
				addr = sib
				continue
			}
			h.cacheInternal(addr, n, rootLvl)
			child, _ := layout.AsInternal(n).ChildFor(key)
			addr = child
			lvl--
			// This validated covering read vindicates the cached jump: the
			// entry steered correctly, so a failure deeper down is a fresh
			// race, not the entry's fault — it must be neither invalidated
			// nor returned as the steering handle.
			jumped = nil
		}
		if ok {
			return addr, jumped
		}
		root, rootLvl = h.refreshRoot()
		if jumped == nil {
			// The failure came from a fresh read, not a cache jump: the
			// next round may use the cache again (the refreshed root moved
			// the traversal past the race).
			useCache = true
		}
	}
}

// traverseToLeaf resolves the leaf-level address covering key by a
// (cache-resumed) descent; the returned entry, when non-nil, is the cached
// parent whose unvalidated child pointer the address is.
func (h *Handle) traverseToLeaf(key uint64) (transport.Addr, *cache.Entry) {
	return h.descend(key, 0)
}

// locateLeaf resolves the leaf that should contain key. A level-1 cache hit
// is the speculative leaf-direct jump (§4.2.3): the leaf read is issued
// immediately from the cached parent, skipping the descent entirely; seek
// validates it and falls back through specFail when the speculation was
// stale. On a level-1 miss the descent still resumes at the deepest cached
// ancestor. The returned cache entry (nil on miss) lets the caller
// invalidate stale steering.
func (h *Handle) locateLeaf(key uint64) (transport.Addr, *cache.Entry) {
	h.C.Step(h.tm.LocalStepNS)
	if e := h.cache.Lookup(key, 1); e != nil {
		h.Rec.CacheHits++
		h.Rec.CacheLevelHits[stats.CacheLevelIdx(1)]++
		h.Rec.SpecReads++
		child, _ := e.N.ChildFor(key)
		return child, e
	}
	h.Rec.CacheMisses++
	return h.traverseToLeaf(key)
}

// locateInternal finds the internal node at the target level covering key:
// a cache hit at exactly that level answers locally, anything else resumes
// the descent at the deepest cached ancestor.
func (h *Handle) locateInternal(key uint64, level uint8) (transport.Addr, *cache.Entry) {
	if e := h.cache.Lookup(key, level); e != nil {
		h.Rec.CacheLevelHits[stats.CacheLevelIdx(level)]++
		return e.Addr, e
	}
	return h.descend(key, level)
}

// lockLeafForWrite locks and reads the leaf that must hold key, handling
// stale steering and B-link move-right under lock coupling (unlock current,
// lock sibling — Sherman holds at most one node lock at a time, §4.3 [52]).
func (h *Handle) lockLeafForWrite(key uint64) (transport.Addr, hocl.Guard, layout.Leaf) {
	addr, ce := h.locateLeaf(key)
	r, _ := h.seek(key, 0, intentWrite, addr, ce, h.leafBuf, nil, nil)
	return r.addr, r.g, layout.AsLeaf(r.n)
}
