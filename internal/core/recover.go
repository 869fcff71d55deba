package core

import (
	"sherman/internal/deploy"
	"sherman/internal/layout"
	"sherman/internal/rdma"
)

// This file is the structural half of crash recovery. A compute-server crash
// can strand a B-link split half-done: the node write-backs committed (the
// split is visible through sibling pointers) but the client died before
// inserting the new separator into the parent — or, for a root split, before
// swinging the superblock's root pointer. The tree stays fully functional in
// that state (every traversal reaches the orphan half by moving right, the
// B-link invariant), but it is permanently degraded and Validate rejects it.
// RecoverStructure is the REDO pass that completes those splits: it walks
// the internal levels top-down, reads each node's children, and re-inserts
// any separator a sibling chain proves missing, through the ordinary locked
// insertParent path — idempotent, so racing with a live splitter is safe
// (Internal.Insert overwrites duplicate keys in place).
//
// The lock half of recovery — freeing the dead client's HOCL locks — needs
// no sweep: orphaned locks are reclaimed on demand by whoever next needs
// them, after the lease expires (see hocl.Guard.Reclaimed).

// maxRecoverPasses bounds re-sweeps under concurrent splits; each pass
// either repairs something or proves the structure complete. Each pass
// fixes at least one broken parent, so the cap is also the most distinct
// half-done splits one call can complete.
const maxRecoverPasses = 64

// RecoverStructure completes every half-done split reachable from the root
// and returns the number of separator (and root) repairs performed, with
// complete=false when the pass budget ran out before a clean sweep (more
// pending repairs than maxRecoverPasses, or live splitters racing the walk
// indefinitely) — the caller should run it again. It issues ordinary timed
// verbs on the handle's clock, so its virtual duration is the recovery time
// a real deployment would observe; run it from any live compute server
// after a crash is detected (lease expiry). Safe, though wasteful, to run
// when nothing crashed.
func (h *Handle) RecoverStructure() (repaired int, complete bool) {
	for pass := 0; pass < maxRecoverPasses; pass++ {
		n, rescan := h.recoverPass()
		repaired += n
		h.Rec.SplitRepairs += int64(n)
		if n == 0 && !rescan {
			return repaired, true
		}
	}
	return repaired, false
}

// recoverPass performs one top-down sweep, returning the repairs made and
// whether another sweep is needed (a repair invalidated the parent images
// already read, or a concurrent writer raced the walk). Only genuine
// separator/root re-inserts count as repairs; races force a rescan without
// inflating the count.
func (h *Handle) recoverPass() (int, bool) {
	// One validated read resolves both the root image and its
	// authoritative level (the superblock's level field is only a hint).
	root, _ := deploy.ReadRoot(h.C)
	buf := make([]byte, h.t.cfg.Format.NodeSize)
	n, _ := h.readNode(root, buf)
	if !n.Alive() {
		if fwd, ok := h.chase(root); ok {
			// The root migrated but the migrator died before repointing the
			// superblock: follow the forwarding hop and repair the pointer,
			// or the sweep would rescan this dead root forever.
			fn, _ := h.readNode(fwd, buf)
			if fn.Alive() && deploy.CASRoot(h.C, root, fwd, fn.Level()) {
				h.cache.SetRoot(fwd, fn.Level())
				return 1, true
			}
		}
		// Raced a root change; the next pass re-resolves it.
		return 0, true
	}
	rootLvl := n.Level()
	h.cache.SetRoot(root, rootLvl)
	if !n.Sibling().IsNil() {
		// Half-done root split: the old root was split but the new root was
		// never installed. insertParent grows the tree above it.
		h.insertParent(n.UpperFence(), n.Sibling(), n.Level()+1)
		return 1, true
	}
	if rootLvl == 0 {
		return 0, false
	}
	return h.recoverNode(layout.AsInternal(n), rootLvl)
}

// recoverNode checks one internal node's children against their claimed key
// ranges: a child whose upper fence falls short of the range the parent
// assigns it has split, and every chain node up to the claimed bound must
// appear as a separator. Missing ones are re-inserted; intact children are
// recursed into.
func (h *Handle) recoverNode(in layout.Internal, level uint8) (int, bool) {
	f := h.t.cfg.Format
	seps := in.Separators()
	children := make([]rdma.Addr, 0, len(seps)+1)
	uppers := make([]uint64, 0, len(seps)+1)
	children = append(children, in.Leftmost())
	for _, s := range seps {
		children = append(children, s.Child)
		uppers = append(uppers, s.Key)
	}
	uppers = append(uppers, in.UpperFence())

	// One doorbell post fetches every child (§4.4's parallel-read pattern);
	// torn reads fall back to the validating single-node path.
	bufs := make([][]byte, len(children))
	reqs := make([]rdma.ReadOp, len(children))
	for i, a := range children {
		bufs[i] = make([]byte, f.NodeSize)
		reqs[i] = rdma.ReadOp{Addr: a, Buf: bufs[i]}
	}
	h.C.ReadMulti(reqs)

	repaired := 0
	for i, a := range children {
		n := layout.ViewNode(f, bufs[i])
		if !n.Consistent() {
			n, _ = h.readNode(a, bufs[i])
		}
		if !n.Alive() {
			if fwd, ok := h.chase(a); ok {
				// The child migrated; if its migrator died before swinging
				// the parent pointer, repair it here (follow the one hop,
				// then rewrite the parent through the locked path) so
				// forwarding entries can drain after the sweep.
				fn, _ := h.readNode(fwd, bufs[i])
				lower := in.LowerFence()
				if i > 0 {
					lower = uppers[i-1]
				}
				if fn.Alive() && fn.Level() == level-1 &&
					h.repointChild(level, lower, a, fwd) == repointDone {
					return repaired + 1, true
				}
			}
			// The parent image went stale under us; re-sweep.
			return repaired, true
		}
		if n.Level() != level-1 {
			return repaired, true
		}
		// Follow the child's sibling chain up to the bound the parent
		// claims; every hop crosses a separator the parent is missing. A
		// sibling that migrated is resolved through forwarding first, so
		// the re-inserted separator names the live copy, not the corpse.
		cur := n
		for fenceBefore(cur.UpperFence(), uppers[i]) {
			// Capture before reading the sibling: cur views bufs[i], which
			// the sibling read below overwrites.
			sepKey := cur.UpperFence()
			sib := cur.Sibling()
			if sib.IsNil() {
				break // structurally off; leave it to Validate to report
			}
			sn, _ := h.readNode(sib, bufs[i])
			if !sn.Alive() {
				if fwd, ok := h.chase(sib); ok {
					if fn, _ := h.readNode(fwd, bufs[i]); fn.Alive() {
						sib, sn = fwd, fn
					}
				}
			}
			if !sn.Alive() || sn.Level() != level-1 {
				return repaired, true
			}
			h.insertParent(sepKey, sib, level)
			repaired++
			cur = sn
		}
		if repaired > 0 {
			// The parent image no longer matches reality; re-sweep rather
			// than descending through stale steering.
			return repaired, true
		}
		if level-1 >= 1 {
			if r, rescan := h.recoverNode(layout.AsInternal(n), level-1); r > 0 || rescan {
				return repaired + r, true
			}
		}
	}
	return repaired, false
}

// fenceBefore reports whether fence a ends strictly before bound b, treating
// layout.NoUpperBound as +infinity.
func fenceBefore(a, b uint64) bool {
	if a == layout.NoUpperBound {
		return false
	}
	return b == layout.NoUpperBound || a < b
}
