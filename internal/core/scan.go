package core

import (
	"fmt"

	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// maxParallelReads caps one ReadMulti batch of a range query.
const maxParallelReads = 16

// maxScanRestarts bounds full-scan restarts so a steering bug can never
// livelock a client silently; the bound is far above anything concurrent
// splits can cause.
const maxScanRestarts = 1 << 20

func (h *Handle) rangeInner(from uint64, span int) []layout.KV {
	out := make([]layout.KV, 0, span) // caller-owned result, never recycled
	cursor := from
	restarts := 0
	for len(out) < span {
		if restarts > maxScanRestarts {
			panic(fmt.Sprintf("core: range scan livelocked at cursor %d (from %d, %d rows)",
				cursor, from, len(out)))
		}
		// Each steered batch's scratch — target addresses, parallel read
		// buffers — dies with the batch, so resetting the arena here keeps
		// its high-water mark at one batch regardless of span.
		h.arena.reset()
		// Collect the addresses of the next run of leaves from the level-1
		// node covering the cursor: a cached copy steers speculatively, a
		// miss reads and validates the node itself. Either way its children
		// from the cursor on are fetched with parallel RDMA_READs.
		addrs := h.scanAddrs[:0]
		h.C.Step(h.tm.LocalStepNS)
		var steer layout.Internal
		e := h.cache.Lookup(cursor, 1)
		if e != nil {
			h.Rec.CacheHits++
			h.Rec.CacheLevelHits[stats.CacheLevelIdx(1)]++
			// The whole steered batch is one speculative leaf-direct
			// resolution: it either validates or fails (and restarts) as a
			// unit, matching the one SpecFail a failure records below.
			h.Rec.SpecReads++
			steer = e.N
		} else {
			h.Rec.CacheMisses++
			if _, rootLvl := h.cache.Root(); rootLvl > 0 {
				addr, ce := h.descend(cursor, 1)
				if r, ok := h.seek(cursor, 1, intentRead, addr, ce, h.nodeBuf, nil, nil); ok {
					h.cacheNode(r.addr, r.n)
					steer = layout.AsInternal(r.n)
				}
			}
		}
		if steer.B == nil {
			// No validated level-1 node to steer from (the root is a leaf or
			// unknown, or the level-1 read raced): descend to one leaf.
			var leaf transport.Addr
			leaf, e = h.traverseToLeaf(cursor)
			addrs = append(addrs, leaf)
		} else {
			addrs = steer.AppendChildrenFrom(addrs, cursor)
			if len(addrs) > maxParallelReads {
				addrs = addrs[:maxParallelReads]
			}
		}
		h.scanAddrs = addrs[:0]

		bufs := h.scanBufs[:0]
		reqs := h.scanReqs[:0]
		for _, a := range addrs {
			buf := h.arena.bytes(h.t.cfg.Format.NodeSize)
			bufs = append(bufs, buf)
			reqs = append(reqs, transport.ReadOp{Addr: a, Buf: buf})
		}
		h.scanBufs, h.scanReqs = bufs[:0], reqs[:0]
		h.C.ReadMulti(reqs)

		restart := false
		for i := range addrs {
			n := h.t.cfg.Format.View(bufs[i])
			if !n.Consistent() {
				// Inconsistent snapshot: re-read this leaf alone.
				n, _ = h.readNode(addrs[i], bufs[i])
			}
			// A migrated leaf reads dead while its parent pointer is stale:
			// chase the forwarding chain (one hop per chunk generation) to
			// the live copy — restarting would re-resolve the same stale
			// parent pointer forever.
			for !n.Alive() {
				fwd, ok := h.chase(addrs[i])
				if !ok {
					break
				}
				addrs[i] = fwd
				n, _ = h.readNode(fwd, bufs[i])
			}
			if !n.Alive() || !n.IsLeaf() || cursor < n.LowerFence() {
				// Freed or repurposed node, or steering overshot the
				// cursor: a failed speculative validation — drop the
				// poisoned path suffix exactly like the point-op path and
				// retraverse from cursor.
				if e != nil {
					h.specFail(cursor, 0, e)
					e = nil
				}
				restart = true
				break
			}
			if n.UpperFence() != layout.NoUpperBound && cursor >= n.UpperFence() {
				// The leaf is left of the cursor — it split since the
				// steering copy was made (possibly a stale top-cache copy
				// whose separators predate the split). Walk the B-link
				// sibling chain rightward, exactly like the lookup path;
				// restarting instead would re-consult the same stale
				// steering forever. The walk advances the cursor, so the
				// rest of this batch is stale: re-steer afterwards.
				var done, ok bool
				done, ok, cursor = h.scanWalkRight(n, bufs[i], cursor, span, &out)
				if done {
					return out
				}
				if !ok && e != nil {
					if h.cache.Invalidate(e) {
						h.Rec.CacheInvalidations++
					}
					e = nil
				}
				restart = true
				break
			}
			kvs, ok := h.leafEntriesConsistent(addrs[i], n, bufs[i])
			if !ok {
				restart = true
				break
			}
			h.C.Step(h.tm.LocalStepNS) // local sort/scan of the leaf
			for _, kv := range kvs {
				if kv.Key >= cursor {
					out = append(out, kv)
					if len(out) == span {
						return out
					}
				}
			}
			if n.UpperFence() == layout.NoUpperBound {
				return out // reached the right edge of the tree
			}
			cursor = n.UpperFence()
		}
		if restart {
			restarts++
			continue
		}
	}
	return out
}

// scanWalkRight walks the B-link sibling chain from leaf n (which lies left
// of the cursor) until reaching the leaf covering the cursor, appending
// that leaf's rows. done=true means the scan is complete (span filled or
// right edge reached); ok=false means a torn node interrupted the walk.
// newCursor is where the scan should continue steering from.
func (h *Handle) scanWalkRight(n layout.Node, buf []byte, cursor uint64, span int, out *[]layout.KV) (done, ok bool, newCursor uint64) {
	sib := n.Sibling()
	if sib.IsNil() {
		return true, true, cursor // right edge: nothing at the cursor
	}
	// The jump to the sibling is this walk's first hop; the shared seek
	// handles the rest of the chain — further move-rights, freed nodes
	// (stale steering recovery) and fence validation — and lands on the
	// leaf covering the cursor, counting its hops into the same budget.
	hops := 0
	h.noteSiblingHop(&hops)
	r, okSeek := h.seek(cursor, 0, intentRead, sib, nil, buf, nil, &hops)
	if !okSeek {
		return true, true, cursor // ran off the right edge
	}
	n = r.n
	kvs, okc := h.leafEntriesConsistent(r.addr, n, buf)
	if !okc {
		return false, false, cursor
	}
	h.C.Step(h.tm.LocalStepNS)
	for _, kv := range kvs {
		if kv.Key >= cursor {
			*out = append(*out, kv)
			if len(*out) == span {
				return true, true, cursor
			}
		}
	}
	if n.UpperFence() == layout.NoUpperBound {
		return true, true, cursor
	}
	return false, true, n.UpperFence()
}

// leafEntriesConsistent extracts the leaf's live entries, re-reading the
// leaf when an entry-level version check fails (§4.4). addr may be NilAddr
// when the caller cannot cheaply re-read (sibling walks); the caller then
// restarts from steering instead.
func (h *Handle) leafEntriesConsistent(addr transport.Addr, n layout.Node, buf []byte) ([]layout.KV, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		leaf := layout.AsLeaf(n)
		if h.t.cfg.Format.Mode != layout.TwoLevel {
			return h.leafEntries(leaf), true
		}
		torn := false
		for i := 0; i < leaf.Cap(); i++ {
			if leaf.Key(i) != 0 && !leaf.EntryConsistent(i) {
				torn = true
				break
			}
		}
		if !torn {
			return h.leafEntries(leaf), true
		}
		if addr.IsNil() {
			return nil, false
		}
		n, _ = h.readNode(addr, buf)
		if !n.Alive() || !n.IsLeaf() {
			return nil, false
		}
	}
	return nil, false
}

// leafEntries sorts the leaf's live entries into the handle's KV scratch.
// The returned slice is valid only until the scratch's next use — scan
// callers copy the rows into their result slice immediately.
func (h *Handle) leafEntries(leaf layout.Leaf) []layout.KV {
	kvs := leaf.AppendEntries(h.kvs[:0])
	h.kvs = kvs[:0]
	return kvs
}
