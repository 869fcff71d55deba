package core

import (
	"fmt"

	"sherman/internal/layout"
	"sherman/internal/transport"
)

// TreeStats is a structural snapshot of the tree, collected with raw reads.
type TreeStats struct {
	// Height is the number of levels (a lone leaf is height 1).
	Height int
	// InternalNodes and LeafNodes count reachable nodes per kind.
	InternalNodes int
	LeafNodes     int
	// Entries is the number of live key-value pairs.
	Entries int
	// LeafFill is the mean fraction of leaf slots in use.
	LeafFill float64
	// BytesUsed is the memory footprint of reachable nodes.
	BytesUsed int64
	// MinLeafFill is the emptiest reachable leaf's fill fraction (1 for an
	// empty tree); a low value indicates delete-driven fragmentation that
	// Compact can reclaim.
	MinLeafFill float64
	// Level1Bytes sums the compact routing copies (Internal.CompactLen) of
	// every level-1 node: what the index cache holds to cache all of level 1.
	Level1Bytes int64
}

// Stats walks the tree and reports structural statistics. Like Validate, it
// uses raw (untimed) reads and must not run concurrently with writers.
func (t *Tree) Stats() TreeStats {
	st := TreeStats{MinLeafFill: 1}
	_, root := t.rawRoot()
	st.Height = int(root.Level()) + 1
	w := walk{t: t}
	w.stats(root, 0, &st)
	if st.LeafNodes > 0 {
		st.LeafFill /= float64(st.LeafNodes)
	}
	return st
}

func (w *walk) stats(n layout.Node, depth int, st *TreeStats) {
	f := &w.t.cfg.Format
	st.BytesUsed += int64(f.NodeSize)
	if n.IsLeaf() {
		st.LeafNodes++
		cnt := layout.AsLeaf(n).Count()
		st.Entries += cnt
		fill := float64(cnt) / float64(f.LeafCap)
		st.LeafFill += fill
		if fill < st.MinLeafFill {
			st.MinLeafFill = fill
		}
		return
	}
	st.InternalNodes++
	if n.Level() == 1 {
		st.Level1Bytes += int64(layout.AsInternal(n).CompactLen())
	}
	for _, c := range w.children(depth, n) {
		w.stats(f.View(c.Buf), depth+1, st)
	}
}

// CompactResult reports what an offline compaction did.
type CompactResult struct {
	// EntriesKept is the number of live pairs carried over.
	EntriesKept int
	// NodesBefore and NodesAfter count reachable nodes.
	NodesBefore int
	NodesAfter  int
	// BytesReclaimed is the footprint difference; the freed nodes' alive
	// bits are cleared (§4.2.4) so stale readers detect them.
	BytesReclaimed int64
}

// Compact rebuilds the tree at the configured bulkload fill factor,
// reclaiming the fragmentation left by deletes (cleared slots, underfull
// and empty leaves). It is an offline maintenance operation: the tree must
// be quiesced — no concurrent sessions — exactly like Bulkload. Old nodes
// are freed by clearing their alive bit, so a client thread resuming with
// stale cached steering will fail validation and retraverse (§4.2.4).
//
// Structural merging during deletes is deliberately not performed on the
// hot path (matching the paper's evaluation and the authors' released
// code); Compact is the offline counterpart that restores packing.
func (t *Tree) Compact() CompactResult {
	before := t.Stats()

	// Collect all live entries in key order, remembering every reachable
	// node so it can be freed after the rebuild.
	var kvs []layout.KV
	rootAddr, root := t.rawRoot()
	old := []transport.Addr{rootAddr}
	w := walk{t: t}
	w.collect(root, 0, &kvs, &old)

	t.freeNodes(old)
	// A walk yields sorted live keys; an empty kvs leaves a single empty leaf.
	if err := t.Bulkload(kvs); err != nil {
		panic(err)
	}
	t.dropCaches()

	after := t.Stats()
	return CompactResult{
		EntriesKept:    len(kvs),
		NodesBefore:    before.LeafNodes + before.InternalNodes,
		NodesAfter:     after.LeafNodes + after.InternalNodes,
		BytesReclaimed: before.BytesUsed - after.BytesUsed,
	}
}

// collect appends the subtree's live entries in key order and records its
// nodes' addresses below n.
func (w *walk) collect(n layout.Node, depth int, kvs *[]layout.KV, nodes *[]transport.Addr) {
	if n.IsLeaf() {
		*kvs = layout.AsLeaf(n).AppendEntries(*kvs)
		return
	}
	for _, c := range w.children(depth, n) {
		*nodes = append(*nodes, c.Addr)
		w.collect(w.t.cfg.Format.View(c.Buf), depth+1, kvs, nodes)
	}
}

// freeNodes clears the alive bit of every node in one RawWrite (the
// free-bit deallocation of §4.2.4). The memory itself is not returned to the
// memory servers — the paper's allocator does not reclaim chunks either;
// freed nodes are tombstones that steer stale readers back to the root.
func (t *Tree) freeNodes(addrs []transport.Addr) {
	dead := []byte{0}
	ops := make([]transport.WriteOp, len(addrs))
	for i, a := range addrs {
		ops[i] = transport.WriteOp{Addr: a.Add(layout.AliveOffset), Data: dead}
	}
	t.cl.RawWrite(ops...)
}

// dropCaches clears every compute server's index cache after a structural
// rebuild, so sessions opened later start from the new root.
func (t *Tree) dropCaches() {
	for i := range t.caches {
		t.caches[i] = newCSCache(t.cfg)
	}
}

// String renders the stats compactly.
func (s TreeStats) String() string {
	return fmt.Sprintf("height=%d internal=%d leaves=%d entries=%d fill=%.2f minFill=%.2f bytes=%d",
		s.Height, s.InternalNodes, s.LeafNodes, s.Entries, s.LeafFill, s.MinLeafFill, s.BytesUsed)
}
