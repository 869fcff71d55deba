package core_test

// Regression tests for the REDO sweep's handling of forwarded addresses: a
// migration that crashed after killing a node but before repointing its
// parent (or the superblock root pointer) leaves the tree serving through
// the forwarding map. RecoverStructure must follow the one hop, repair the
// stale pointer through the locked write path, and leave the tree
// Validate-clean so the orphaned forwarding entries can drain.

import (
	"testing"

	"sherman/internal/alloc"
	"sherman/internal/cluster"
	core "sherman/internal/core"
	"sherman/internal/rdma"
	"sherman/internal/testutil"
)

// moveWithoutRepoint reproduces the crash state: the node at src is moved
// to a fresh chunk on dstMS — forwarding installed, original killed — but
// the parent pointer is left stale, exactly as if the migrating compute
// server died between the kill write and the repoint. The forwarding entry
// is recorded as owned by (dead) compute server owner.
func moveWithoutRepoint(t *testing.T, cl *cluster.Cluster, h *core.Handle, src rdma.Addr, dstMS uint16, owner int) rdma.Addr {
	t.Helper()
	newBase := rdma.MakeAddr(dstMS, h.C.GrowChunk(dstMS))
	ck := alloc.ChunkOf(src)
	cl.Fwd.Install(ck, newBase, owner, cl.Faults().Epoch(owner))
	dst := newBase.Add(src.Off() % rdma.DefaultChunkSize)
	if _, err := h.MoveNode(src, dst); err != nil {
		t.Fatalf("MoveNode(%v): %v", src, err)
	}
	return dst
}

func forwardTestTree(t *testing.T, cfg core.Config) (*cluster.Cluster, *core.Tree, *core.Handle) {
	t.Helper()
	cl := testutil.NewCluster(t, 2, 2)
	tr := testutil.NewTree(t, cl, cfg)
	testutil.Bulk(t, tr, 300)
	return cl, tr, tr.NewHandle(0, 0)
}

// TestRecoverRepairsForwardedChild: a leaf killed-and-forwarded with a
// stale parent pointer must be repaired by the REDO sweep — follow the
// hop, rewrite the parent — after which the dead owner's forwarding
// entries drain and the tree validates.
func TestRecoverRepairsForwardedChild(t *testing.T) {
	testutil.RunConfigs(t, func(t *testing.T, cfg core.Config) {
		cl, tr, h := forwardTestTree(t, cfg)

		// Any non-root node of memory server 1 works as the victim (chunk 0
		// may be the host-mode lock table; scan a few).
		var items []core.ChunkNode
		for ci := uint64(0); ci < 4 && len(items) == 0; ci++ {
			items = h.CollectChunk(alloc.ChunkID{MS: 1, Index: ci})
		}
		if len(items) == 0 {
			t.Fatal("no nodes on ms1")
		}
		victim := items[len(items)-1] // last = deepest (parents sort first)
		moveWithoutRepoint(t, cl, h, victim.Addr, 0, 1)
		cl.Kill(1, 0) // the "migrator" dies; its forwarding entry is orphaned

		// The tree still serves through the forwarding hop.
		probe := victim.LowerFence + 1
		if _, ok := h.Lookup(probe); !ok {
			t.Fatalf("key %d unreachable through forwarding", probe)
		}
		if h.Rec.ForwardHops == 0 {
			t.Fatal("lookup did not chase the forwarding entry")
		}

		// Validate (raw pointer walk) sees the stale parent: that is the
		// regression state the sweep must repair.
		if err := tr.Validate(); err == nil {
			t.Fatal("stale parent pointer not visible to Validate; test setup is wrong")
		}

		repairs, complete := h.RecoverStructure()
		if !complete {
			t.Fatal("recovery pass budget exhausted")
		}
		if repairs == 0 {
			t.Fatal("sweep repaired nothing")
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("validate after recovery: %v", err)
		}
		if n := tr.DrainDeadForwarding(); n != 1 {
			t.Fatalf("drained %d forwarding entries, want 1", n)
		}
		if cl.Fwd.Len() != 0 {
			t.Fatalf("%d forwarding entries linger", cl.Fwd.Len())
		}
		// And the data is still exactly there, now without hops.
		h2 := tr.NewHandle(0, 1)
		if v, ok := h2.Lookup(probe); !ok || v != testutil.BulkValue(probe) {
			t.Fatalf("post-repair Lookup(%d) = (%d,%v)", probe, v, ok)
		}
	})
}

// TestRecoverRepairsForwardedRoot: the root itself killed-and-forwarded
// with a stale superblock pointer — the sweep must CAS the superblock to
// the relocated copy instead of rescanning the dead root forever.
func TestRecoverRepairsForwardedRoot(t *testing.T) {
	testutil.RunConfigs(t, func(t *testing.T, cfg core.Config) {
		cl, tr, h := forwardTestTree(t, cfg)

		// Resolve the root's address via a fresh descent: CollectChunk on
		// the root's chunk lists parents first, so item 0 of the chunk
		// holding the highest-level node is the root.
		var rootItem *core.ChunkNode
		for ms := uint16(0); ms < 2 && rootItem == nil; ms++ {
			for ci := uint64(0); ci < 4 && rootItem == nil; ci++ {
				items := h.CollectChunk(alloc.ChunkID{MS: ms, Index: ci})
				for i := range items {
					if rootItem == nil || items[i].Level > rootItem.Level {
						rootItem = &items[i]
					}
				}
			}
		}
		if rootItem == nil {
			t.Fatal("root not found")
		}
		moveWithoutRepoint(t, cl, h, rootItem.Addr, 0, 1)
		cl.Kill(1, 0)

		if _, ok := h.Lookup(5); !ok {
			t.Fatal("key 5 unreachable through forwarded root")
		}

		repairs, complete := h.RecoverStructure()
		if !complete {
			t.Fatal("recovery pass budget exhausted")
		}
		if repairs == 0 {
			t.Fatal("sweep did not repair the superblock pointer")
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("validate after recovery: %v", err)
		}
		tr.DrainDeadForwarding()
		if cl.Fwd.Len() != 0 {
			t.Fatalf("%d forwarding entries linger", cl.Fwd.Len())
		}
	})
}
