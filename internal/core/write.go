package core

import (
	"sort"

	"sherman/internal/cache"
	"sherman/internal/deploy"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/stats"
	"sherman/internal/transport"
)

// unlockWrite releases g, flushing pending dependent writes per the tree's
// command-combination setting. nil pending releases through the dedicated
// release scratch, so even a bare unlock (failed probes, move-rights) posts
// its GLT-clear WRITE without allocating.
func (h *Handle) unlockWrite(g hocl.Guard, pending []transport.WriteOp) {
	if pending == nil {
		pending = h.relWops[:0]
	}
	// Mirror the pending write-backs to their chunks' replicas before the
	// primary commit below: once Unlock returns (and the op can ack), every
	// replica already carries the write, so a memory-server death at any
	// later verb boundary loses nothing acked.
	h.mirror(pending)
	h.t.locks.Unlock(h.C, g, pending, h.t.cfg.Combine)
	h.noteMirrorLag()
}

// unlockWith releases g after posting exactly the given write-backs, built in
// the handle's write-op scratch — the steady-state (non-split) write path,
// allocation-free.
func (h *Handle) unlockWith(g hocl.Guard, ops ...transport.WriteOp) {
	w := append(h.takeWops(), ops...)
	h.unlockWrite(g, w)
	h.keepWops(w)
}

// appendCopiedWrite queues one write-back with a private copy of data: a
// leaf write group defers its writes until its single doorbell post, by
// which time the shared node buffer may hold a different node (a chained
// sibling). The copy lives in the handle's arena — valid until the next
// operation resets it, which is after the group's doorbell flushed.
func (h *Handle) appendCopiedWrite(ops []transport.WriteOp, a transport.Addr, data []byte) []transport.WriteOp {
	cp := h.arena.bytes(len(data))
	copy(cp, data)
	return append(ops, transport.WriteOp{Addr: a, Data: cp})
}

// writeLeafGroup is the one leaf write (Figure 7: lock, read, modify,
// combined write-backs + release). It locks the leaf covering ops[start]
// and applies every consecutive covered operation: inserts and deletes
// mutate the locked image and queue their write-backs (the entry alone in
// TwoLevel, the whole leaf with its checksum otherwise), lookups read it.
// One combined write-backs+release doorbell ends the group. The group
// chains into aliased siblings where the lock slot allows, and ends early
// when a split consumes the guard. A point Put or Delete is a group of one
// (execOne); Exec's write units are the longer groups.
//
// It returns the index of the first unconsumed op and the bytes the
// committed attempt wrote back. A commit a failover swallowed (h.redo, see
// execOne) re-runs the whole group against the promoted chunk, so the flag
// is always consumed on return.
func (h *Handle) writeLeafGroup(ops []planOp, start int, results []OpResult) (next int, dataBytes int64) {
	f := &h.t.cfg.Format
	var i int
redo:
	h.arena.reset()
	i, dataBytes = start, 0
	{
		addr, g, leaf := h.lockLeafForWrite(ops[i].key)
		pending := h.takeWops()
	group:
		for {
			h.C.Step(h.tm.LocalStepNS)
			dirty := false
			for i < len(ops) && leafCovers(leaf.Node, ops[i].key) {
				op := ops[i]
				split := false
				switch op.kind {
				case stats.OpLookup:
					// Served from the locked image: exclusion means no torn
					// entries, and the image reflects the group's earlier
					// writes, preserving submission order on the key.
					if slot, hit := leaf.Find(op.key); hit {
						results[op.pos] = OpResult{Value: leaf.Value(slot), Found: true}
					}
				case stats.OpDelete:
					if f.Mode == layout.TwoLevel {
						if slot, hit := leaf.Find(op.key); hit {
							leaf.ClearEntry(slot)
							off, sz := leaf.EntrySpan(slot)
							pending = h.appendCopiedWrite(pending, addr.Add(uint64(off)), leaf.B[off:off+sz])
							dataBytes += int64(sz)
							results[op.pos].Found = true
						}
					} else if leaf.DeleteSorted(op.key) {
						results[op.pos].Found = true
						dirty = true
					}
				case stats.OpInsert:
					// Entry-level modification in TwoLevel: bump FEV/REV and
					// write back only the entry (Figure 7 lines 11-17). A
					// full leaf splits: the split writes whole nodes,
					// carrying every entry already applied to the local
					// image, and earlier queued writes ride along in the
					// same doorbell ahead of the split's write-backs.
					if f.Mode == layout.TwoLevel {
						slot, found := leaf.Find(op.key)
						if !found {
							slot = leaf.FindFree()
						}
						if found || slot >= 0 {
							leaf.SetEntry(slot, op.key, op.value)
							off, sz := leaf.EntrySpan(slot)
							pending = h.appendCopiedWrite(pending, addr.Add(uint64(off)), leaf.B[off:off+sz])
							dataBytes += int64(sz)
						} else {
							dataBytes += h.splitLeaf(addr, g, leaf, op.key, op.value, pending)
							split = true
						}
					} else if leaf.InsertSorted(op.key, op.value) {
						dirty = true
					} else {
						dataBytes += h.splitLeaf(addr, g, leaf, op.key, op.value, pending)
						split = true
					}
				}
				i++
				if split {
					break group // the split released the guard
				}
			}
			if f.Mode == layout.Checksum && dirty {
				leaf.UpdateChecksum()
				pending = h.appendCopiedWrite(pending, addr, leaf.B)
				dataBytes += int64(f.NodeSize)
			}
			if i < len(ops) {
				if sib, sibLeaf, ok := h.chainToSibling(g, leaf, ops[i].key); ok {
					addr, leaf = sib, sibLeaf
					continue group
				}
			}
			pending = growForRelease(pending)
			h.unlockWrite(g, pending)
			h.keepWops(pending)
			break
		}
		if h.takeRedo() {
			// A failover swallowed the group's doorbell (or a split's): no
			// write became durable and nothing acked, so re-run the whole
			// group against the promoted chunk; results recompute identically.
			goto redo
		}
	}
	return i, dataBytes
}

// splitLeaf splits the locked full leaf, inserting (key, value) into the
// proper half, and propagates the separator to the parent (Figure 7 lines
// 18-39). It returns the data bytes written back. carry holds the writes
// the leaf group queued under g before the split filled the leaf (possibly
// none); they target g's memory server and are posted ahead of the split's
// write-backs in the same doorbell batch.
func (h *Handle) splitLeaf(addr transport.Addr, g hocl.Guard, leaf layout.Leaf, key, value uint64, carry []transport.WriteOp) int64 {
	f := &h.t.cfg.Format
	kvs := leaf.AppendEntries(h.kvs[:0]) // sorts the unsorted leaf (Figure 7 line 21)
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	kvs = append(kvs, layout.KV{})
	copy(kvs[i+1:], kvs[i:])
	kvs[i] = layout.KV{Key: key, Value: value}
	h.kvs = kvs[:0] // retain any growth; consumed fully before the next use

	mid := len(kvs) / 2
	sep := kvs[mid].Key

	sibAddr := h.alloc.Alloc(f.NodeSize)
	sib := layout.NewLeafIn(*f, h.arena.bytes(f.NodeSize), sep, leaf.UpperFence())
	sib.SetSibling(leaf.Sibling())
	sib.SetEntries(kvs[mid:])

	leaf.SetEntries(kvs[:mid])
	leaf.SetUpperFence(sep)
	leaf.SetSibling(sibAddr)
	if f.Mode == layout.TwoLevel {
		leaf.BumpNodeVersions() // node-level modification (Figure 7 lines 26-28)
	} else {
		sib.UpdateChecksum()
		leaf.UpdateChecksum()
	}

	dataBytes := int64(2 * f.NodeSize)
	// Sibling write-back, node write-back and lock release combine when the
	// new sibling landed on the same MS (Figure 7 lines 29-35).
	if sibAddr.MS() == addr.MS() {
		carry = append(carry,
			transport.WriteOp{Addr: sibAddr, Data: sib.B},
			transport.WriteOp{Addr: addr, Data: leaf.B},
		)
	} else {
		h.writeMirrored(sibAddr, sib.B)
		if h.redo {
			// The sibling's chunk lost its server before the copy became
			// durable: abandon the split with a bare release (nothing has
			// committed) and leave the flag for the op-level retry.
			h.unlockWrite(g, nil)
			h.keepWops(carry)
			return 0
		}
		carry = append(carry, transport.WriteOp{Addr: addr, Data: leaf.B})
	}
	h.unlockWrite(g, carry)
	h.keepWops(carry)
	if h.redo {
		// The leaf's chunk was re-keyed mid-split: the whole doorbell
		// (earlier queued writes included) vanished, so no separator must be
		// installed; the op-level retry redoes the split at the promoted leaf.
		return 0
	}
	h.insertParent(sep, sibAddr, 1)
	return dataBytes
}

// insertParent inserts (sepKey -> child) into the internal node at the given
// level, creating a new root when the tree grows (insert_internal of
// Figure 7 line 39).
func (h *Handle) insertParent(sepKey uint64, child transport.Addr, level uint8) {
	f := &h.t.cfg.Format
	for {
		root, rootLvl := h.cache.Root()
		if root.IsNil() {
			root, rootLvl = h.refreshRoot()
		}
		if rootLvl < level {
			// The split node was the root: grow the tree.
			newRootAddr := h.alloc.Alloc(f.NodeSize)
			nr := layout.NewInternalIn(*f, h.arena.bytes(f.NodeSize), level, 0, layout.NoUpperBound)
			nr.SetLeftmost(root)
			nr.Insert(sepKey, child)
			if f.Mode == layout.Checksum {
				nr.UpdateChecksum()
			}
			h.writeMirrored(newRootAddr, nr.B)
			if h.takeRedo() {
				// The new root's chunk died before the image became durable:
				// grow it again from a fresh chunk (the allocator abandons
				// chunks on dead servers).
				h.refreshRoot()
				continue
			}
			if deploy.CASRoot(h.C, root, newRootAddr, level) {
				h.cache.SetRoot(newRootAddr, level)
				return
			}
			// Lost the root race: deallocate (clear the free bit, §4.2.4)
			// and retry against the winner's root. A failover eating the
			// free-bit write only orphans an already-garbage node.
			h.writeMirrored(newRootAddr.Add(layout.AliveOffset), []byte{0})
			h.takeRedo()
			h.refreshRoot()
			continue
		}
		addr, ce := h.locateInternal(sepKey, level)
		if h.tryInsertAt(addr, ce, sepKey, child, level) {
			return
		}
		// Stale steering; retry from a fresh root.
	}
}

// tryInsertAt seeks the internal node at addr under lock coupling and
// inserts or splits. false means steering was stale and the caller should
// re-resolve the target from a fresh root.
func (h *Handle) tryInsertAt(addr transport.Addr, ce *cache.Entry, sepKey uint64, child transport.Addr, level uint8) bool {
	f := &h.t.cfg.Format
	r, ok := h.seek(sepKey, level, intentWrite, addr, ce, h.nodeBuf, nil, nil)
	if !ok {
		return false
	}
	addr, g := r.addr, r.g
	in := layout.AsInternal(r.n)
	h.C.Step(h.tm.LocalStepNS)
	if in.Insert(sepKey, child) {
		if f.Mode == layout.TwoLevel {
			in.BumpNodeVersions()
		} else {
			in.UpdateChecksum()
		}
		h.unlockWith(g, transport.WriteOp{Addr: addr, Data: in.B})
		if h.takeRedo() {
			// The parent's chunk was re-keyed mid-commit: nothing durable
			// changed; re-resolve and retry at the promoted parent.
			return false
		}
		// Refresh the cached copy with the post-insert image (replacement by
		// fence key is O(1)) so the split's parent update never leaves a
		// stale cached parent behind.
		h.cacheNode(addr, in.Node)
		return true
	}
	// Full: split the internal node and push the median up.
	rightAddr := h.alloc.Alloc(f.NodeSize)
	right := layout.NewInternalIn(*f, h.arena.bytes(f.NodeSize), level, 0, layout.NoUpperBound)
	upSep := in.SplitInto(right, rightAddr)
	switch {
	case sepKey < upSep:
		in.Insert(sepKey, child)
	default:
		right.Insert(sepKey, child)
	}
	if f.Mode == layout.TwoLevel {
		in.BumpNodeVersions()
	} else {
		right.UpdateChecksum()
		in.UpdateChecksum()
	}
	if rightAddr.MS() == addr.MS() {
		h.unlockWith(g,
			transport.WriteOp{Addr: rightAddr, Data: right.B},
			transport.WriteOp{Addr: addr, Data: in.B},
		)
	} else {
		h.writeMirrored(rightAddr, right.B)
		if h.takeRedo() {
			// Right half's chunk died before the copy was durable: abandon
			// the split (nothing committed) and retry from fresh steering.
			h.unlockWrite(g, nil)
			return false
		}
		h.unlockWith(g, transport.WriteOp{Addr: addr, Data: in.B})
	}
	if h.takeRedo() {
		// The split's commit vanished with its chunk: no durable change;
		// retry from fresh steering against the promoted node.
		return false
	}
	// Replace the split node's cached copy (its fence range shrank) and
	// admit the new right half, so traversals steered by the cache see the
	// post-split structure immediately.
	h.cacheNode(addr, in.Node)
	h.cacheNode(rightAddr, right.Node)
	h.insertParent(upSep, rightAddr, level+1)
	return true
}
