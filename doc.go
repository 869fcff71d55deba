// Package sherman is a from-scratch Go reproduction of Sherman, the
// write-optimized distributed B+Tree index on disaggregated memory from
// SIGMOD 2022 (Qing Wang, Youyou Lu, Jiwu Shu; arXiv:2112.07320).
//
// # Architecture
//
// A Sherman deployment separates compute from memory: memory servers (MSs)
// host the tree in high-volume DRAM behind RDMA NICs and have near-zero
// compute; compute servers (CSs) run many client threads that manipulate the
// tree purely with one-sided RDMA verbs (READ, WRITE, CAS, masked CAS). No
// RDMA hardware is required here: the fabric is simulated with a virtual-time
// model calibrated to the paper's 100 Gbps ConnectX-5 testbed, while every
// data-path operation really executes against shared memory with
// cacheline-granular torn reads — so the index's consistency machinery is
// genuinely exercised. See DESIGN.md for the model.
//
// Three techniques give Sherman its write performance:
//
//   - Command combination (§4.5): dependent RDMA_WRITEs (node write-back,
//     lock release) post as one doorbell batch on an RC queue pair, whose
//     in-order delivery makes the acknowledgement of the first redundant.
//   - Hierarchical on-chip locks (§4.3): global lock tables live in NIC
//     on-chip memory (no PCIe transactions), and per-CS local lock tables
//     with FIFO wait queues and bounded lock handover eliminate remote retry
//     storms.
//   - Two-level versions (§4.4): unsorted leaves whose entries carry their
//     own 4-bit version pairs, so a non-structural insert or delete writes
//     back one ~18-byte entry instead of a 1 KB node.
//
// # Usage
//
// Open a simulated cluster, create a tree, then open one Session per worker
// goroutine:
//
//	cluster, err := sherman.NewCluster(sherman.ClusterConfig{MemoryServers: 8, ComputeServers: 8})
//	tree, err := cluster.CreateTree(sherman.DefaultTreeOptions())
//	s, err := tree.SessionAt(0)
//	err = s.PutE(42, 1000)
//	v, ok, err := s.GetE(42)
//	kvs, err := s.ScanE(40, 10)
//
// Every request is an Op, and errors are typed (ErrReservedKey,
// ErrSessionDead, ErrBadComputeServer) — nothing panics. Submit pipelines
// operations the way the paper's clients run multiple coroutines per thread
// to hide round-trip latency: a session opened with a pipeline depth keeps
// that many operations outstanding, overlapping their round trips while
// preserving sequential semantics (same-key operations never reorder). Exec
// sends a mixed batch through the planner — observably equivalent to the
// same operations applied in order, but amortizing traversals, leaf locks
// and doorbells across operations that share a leaf:
//
//	s, err := tree.SessionAt(0, sherman.PipelineDepth(4))
//	f := s.Submit(sherman.PutOp(42, 1000))
//	r := s.Submit(sherman.GetOp(42)).Wait() // sees the put
//	results := s.Exec([]sherman.Op{sherman.PutOp(1, 10), sherman.GetOp(2)})
//	s.Flush()
//
// A Future stays readable until the session's next Submit after its first
// Wait, and that Submit may reuse it, so a steady Submit/Wait loop
// allocates nothing. A future that was never waited is never reused.
//
// Sessions are deliberately single-goroutine (they model one client thread of
// the paper); open as many as you like across compute servers.
//
// The same engine, reconfigured via TreeOptions, is the FG+ baseline the
// paper compares against, which makes the ablation studies of §5 a matter of
// flipping options.
package sherman
