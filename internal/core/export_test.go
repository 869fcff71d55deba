package core

import "sherman/internal/hocl"

// BulkSlab is the bulk-load slab size, for the external tests that pin its
// boundaries.
const BulkSlab = bulkSlab

// Locks exposes the tree's lock manager, for external tests that hold a
// node's lock while they write it.
func (t *Tree) Locks() *hocl.Manager { return t.locks }

// Redo reports whether the handle's redo flag is raised: a write whose
// commit a failover swallowed must retry before it acks.
func (h *Handle) Redo() bool { return h.redo }
