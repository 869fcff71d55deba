package sherman

import (
	"errors"
	"fmt"

	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/layout"
	"sherman/internal/sim"
)

// Engine selects which index design a tree runs.
type Engine int

// Engines.
const (
	// EngineSherman is the full system: two-level versions, command
	// combination, hierarchical on-chip locks.
	EngineSherman Engine = iota
	// EngineFGPlus is the strengthened FG baseline of §5.1.2: sorted
	// checksum-protected nodes, host-memory spin locks, no combining.
	EngineFGPlus
)

// String names the engine.
func (e Engine) String() string {
	if e == EngineFGPlus {
		return "FG+"
	}
	return "Sherman"
}

// TreeOptions configures one tree.
type TreeOptions struct {
	// Engine picks the overall design; Advanced (if non-nil) overrides
	// individual techniques for ablation studies.
	Engine Engine

	// KeySize is the on-wire key size in bytes (>= 8; the logical key is a
	// uint64, larger sizes model wider keys as the paper's §5.6.1 sweep
	// does). 0 means 8.
	KeySize int

	// NodeSize is the tree-node size in bytes (the paper uses 1 KB). 0
	// means 1024.
	NodeSize int

	// CacheBytes bounds each compute server's budgeted index-cache region
	// (§4.2.3; the paper gives each CS 500 MB). 0 means 64 MB. The top two
	// tree levels are always cached outside this budget.
	CacheBytes int64

	// CacheLevels is the budgeted caching depth: tree levels 1..CacheLevels
	// (level 1 = the parents of leaves) are cacheable below the
	// always-cached top. 0 means the default (2); 1 reproduces the paper's
	// flat level-1-only cache; negative disables the budgeted region
	// entirely (top levels only).
	CacheLevels int

	// LocksPerMS sizes each global lock table (§4.3; the paper packs
	// 131,072 16-bit locks into 256 KB of NIC memory). 0 means 16384.
	LocksPerMS int

	// BulkFill is the leaf fill factor used by Bulkload (the paper loads
	// trees 80% full). 0 means 0.8.
	BulkFill float64

	// Poison fills recycled hot-path scratch (per-session arenas, pooled
	// write-op slices, lock-wait structs) with 0xDB on release, so any
	// use-after-release of a recycled buffer corrupts data deterministically
	// instead of silently reading stale bytes. A debugging/CI mode: the
	// differential oracle runs once under it (with -race) to prove the
	// zero-allocation recycling never aliases live data.
	Poison bool

	// Advanced enables per-technique control for ablations; nil uses the
	// Engine's standard configuration.
	Advanced *AdvancedOptions
}

// AdvancedOptions toggles Sherman's individual techniques, mirroring the
// ablation axes of Figures 10, 11 and 16.
type AdvancedOptions struct {
	// TwoLevelVersions selects the unsorted-leaf entry+node version layout
	// (§4.4); false selects FG's sorted checksum layout.
	TwoLevelVersions bool
	// CombineCommands posts dependent commands as one doorbell batch
	// (§4.5): write-back + lock release, and on the real fabric lock CAS +
	// node READ.
	CombineCommands bool
	// OnChipLocks stores global lock tables in NIC on-chip memory (§4.3).
	OnChipLocks bool
	// LocalLockTables coordinates conflicting acquisitions within a CS.
	LocalLockTables bool
	// WaitQueues adds FIFO fairness to local lock tables; requires
	// LocalLockTables.
	WaitQueues bool
	// Handover passes the global lock to the next local waiter directly;
	// requires WaitQueues.
	Handover bool
}

// DefaultTreeOptions returns the paper's default Sherman configuration.
func DefaultTreeOptions() TreeOptions { return TreeOptions{Engine: EngineSherman} }

// FGPlusTreeOptions returns the FG+ baseline configuration.
func FGPlusTreeOptions() TreeOptions { return TreeOptions{Engine: EngineFGPlus} }

func (o TreeOptions) toCore() (core.Config, error) {
	keySize := o.KeySize
	if keySize == 0 {
		keySize = 8
	}
	if keySize < 8 {
		return core.Config{}, fmt.Errorf("sherman: KeySize %d below the 8-byte minimum", keySize)
	}
	nodeSize := o.NodeSize
	if nodeSize == 0 {
		nodeSize = 1024
	}

	var cfg core.Config
	switch {
	case o.Advanced != nil:
		a := o.Advanced
		mode := layout.Checksum
		if a.TwoLevelVersions {
			mode = layout.TwoLevel
		}
		cfg.Format = layout.NewFormat(mode, keySize, nodeSize)
		cfg.Combine = a.CombineCommands
		cfg.Locks = hocl.Mode{
			OnChip:    a.OnChipLocks,
			Local:     a.LocalLockTables,
			WaitQueue: a.WaitQueues,
			Handover:  a.Handover,
		}
		if a.WaitQueues && !a.LocalLockTables {
			return core.Config{}, errors.New("sherman: WaitQueues requires LocalLockTables")
		}
		if a.Handover && !a.WaitQueues {
			return core.Config{}, errors.New("sherman: Handover requires WaitQueues")
		}
	case o.Engine == EngineFGPlus:
		cfg = core.FGPlusConfig()
		cfg.Format = layout.NewFormat(layout.Checksum, keySize, nodeSize)
	default:
		cfg = core.ShermanConfig()
		cfg.Format = layout.NewFormat(layout.TwoLevel, keySize, nodeSize)
	}
	cfg.CacheBytes = o.CacheBytes
	cfg.CacheLevels = o.CacheLevels
	cfg.LocksPerMS = o.LocksPerMS
	cfg.BulkFill = o.BulkFill
	cfg.Poison = o.Poison
	if cfg.BulkFill < 0 || cfg.BulkFill > 1 {
		return core.Config{}, fmt.Errorf("sherman: BulkFill %v outside [0,1]", cfg.BulkFill)
	}
	return cfg, nil
}

// Tree is one distributed B+Tree living in a cluster's disaggregated
// memory. Tree methods are setup-time only; concurrent index operations go
// through Sessions.
type Tree struct {
	c  *Cluster
	tr *core.Tree
}

// CreateTree creates an empty tree in the cluster.
func (c *Cluster) CreateTree(opts TreeOptions) (*Tree, error) {
	cfg, err := opts.toCore()
	if err != nil {
		return nil, err
	}
	t := &Tree{c: c, tr: core.New(c.be, cfg)}
	c.treeMu.Lock()
	c.trees = append(c.trees, t)
	c.treeMu.Unlock()
	return t, nil
}

// KV is one key-value pair. Key 0 is reserved as the tree's empty sentinel
// (the paper deletes by setting an entry's key to null).
type KV = layout.KV

// Bulkload replaces the tree's contents with the given pairs, which must be
// sorted by strictly increasing key, none zero: a key 0 is reported as
// ErrReservedKey wrapped with its index, and nothing is loaded. Leaves are
// packed to the configured fill factor, striped across memory servers, and
// built by up to GOMAXPROCS goroutines. Call before opening Sessions; it is
// not concurrent-safe with live operations.
func (t *Tree) Bulkload(kvs []KV) error { return t.tr.Bulkload(kvs) }

// Validate walks the whole tree checking structural invariants (fence
// nesting, sorted separators, sibling linkage, level consistency). Intended
// for tests and debugging; not concurrent-safe with writers.
func (t *Tree) Validate() error { return t.tr.Validate() }

// Stats walks the tree and reports structural statistics (height, node
// counts, fill factors, footprint). Not concurrent-safe with writers.
func (t *Tree) Stats() TreeStats {
	s := t.tr.Stats()
	return TreeStats{
		Height:        s.Height,
		InternalNodes: s.InternalNodes,
		LeafNodes:     s.LeafNodes,
		Entries:       s.Entries,
		LeafFill:      s.LeafFill,
		MinLeafFill:   s.MinLeafFill,
		BytesUsed:     s.BytesUsed,
	}
}

// TreeStats is a structural snapshot of a tree.
type TreeStats struct {
	// Height is the number of levels (a lone leaf is height 1).
	Height int
	// InternalNodes and LeafNodes count reachable nodes.
	InternalNodes, LeafNodes int
	// Entries is the number of live key-value pairs.
	Entries int
	// LeafFill is the mean leaf occupancy in [0,1]; MinLeafFill is the
	// emptiest leaf's occupancy — low values signal delete fragmentation.
	LeafFill, MinLeafFill float64
	// BytesUsed is the footprint of reachable nodes.
	BytesUsed int64
}

// Compact rebuilds the tree at the bulkload fill factor, reclaiming
// fragmentation left by deletes. It is an offline maintenance operation:
// quiesce all sessions first (sessions opened before Compact must not be
// used afterwards). Old nodes are freed via the §4.2.4 free bit. Structural
// merging is deliberately not done on the hot path — matching the paper —
// so Compact is the offline counterpart that restores packing.
func (t *Tree) Compact() CompactStats {
	r := t.tr.Compact()
	return CompactStats{
		EntriesKept:    r.EntriesKept,
		NodesBefore:    r.NodesBefore,
		NodesAfter:     r.NodesAfter,
		BytesReclaimed: r.BytesReclaimed,
	}
}

// CompactStats reports the effect of a Compact call.
type CompactStats struct {
	EntriesKept             int
	NodesBefore, NodesAfter int
	BytesReclaimed          int64
}

// LockStats reports aggregate HOCL activity.
func (t *Tree) LockStats() LockStats {
	s := t.tr.LockStats()
	return LockStats{
		Acquisitions:  s.Acquisitions.Load(),
		Handovers:     s.Handovers.Load(),
		GlobalRetries: s.GlobalRetries.Load(),
		LocalWaits:    s.LocalWaits.Load(),
		LeaseExpiries: s.LeaseExpiries.Load(),
		Reclaims:      s.Reclaims.Load(),

		AcquireReads:       s.AcquireReads.Load(),
		AcquireReadsWasted: s.AcquireReadsWasted.Load(),
	}
}

// LockStats summarizes lock-manager activity (§4.3): Handovers are
// acquisitions that skipped the remote CAS entirely; GlobalRetries are
// failed remote CAS attempts (the retry traffic HOCL exists to suppress);
// LocalWaits are acquisitions that queued behind another thread of the same
// compute server. LeaseExpiries counts locks orphaned by compute-server
// crashes; Reclaims counts the expired-lease reclamations survivors
// performed to free them. AcquireReads counts acquisitions whose lock CAS
// carried the node READ in one doorbell (the real fabric's write path, with
// CombineCommands on); AcquireReadsWasted those whose CAS lost, so the bytes
// were discarded — the doorbell saves a round trip on the difference.
type LockStats struct {
	Acquisitions  int64
	Handovers     int64
	GlobalRetries int64
	LocalWaits    int64
	LeaseExpiries int64
	Reclaims      int64

	AcquireReads       int64
	AcquireReadsWasted int64
}

// Recover completes crash recovery from compute server cs: it sweeps the
// tree for splits that crashed clients left half-done (committed node
// write-backs whose parent separator — or new root — was never installed)
// and re-inserts them through the ordinary locked write path. Orphaned
// locks need no sweep; they are reclaimed on demand once the dead holder's
// lease expires. Call after KillComputeServer (from any surviving server)
// to restore the tree to a Validate-clean state; running it when nothing
// crashed is safe and repairs nothing.
func (t *Tree) Recover(cs int) (rs RecoveryStats, err error) {
	if cs < 0 || cs >= t.c.ComputeServers() {
		return RecoveryStats{}, fmt.Errorf("%w: %d not in [0,%d)", ErrBadComputeServer, cs, t.c.ComputeServers())
	}
	if !t.c.ComputeServerAlive(cs) {
		return RecoveryStats{}, fmt.Errorf("%w: recovery must run on a live compute server", ErrSessionDead)
	}
	defer func() {
		// The recovering server can itself crash mid-sweep.
		if r := recover(); r != nil {
			if _, ok := sim.IsCrash(r); ok {
				err = ErrSessionDead
				return
			}
			panic(r)
		}
	}()
	h := t.tr.NewHandle(cs, int(sessionSeq.Add(1)))
	// Anchor the fresh handle's clock at the cluster's latest verb time:
	// otherwise the sweep's first contended acquisition would spend virtual
	// time catching up through all prior activity and the reported latency
	// would measure the cluster's age, not the recovery.
	t.c.anchorClock(h)
	t0 := h.C.Now()
	repairs, complete := h.RecoverStructure()
	rs = RecoveryStats{SplitRepairs: repairs, VirtualNS: h.C.Now() - t0}
	if !complete {
		return rs, fmt.Errorf("sherman: recovery pass budget exhausted with repairs pending (%d done); run Recover again", repairs)
	}
	// The forwarding map is cluster-wide: a dead migrator's entries may be
	// the only thing keeping *any* tree's stale parent pointers resolvable,
	// so every tree must be swept clean before the entries can drain.
	t.c.treeMu.Lock()
	trees := append([]*Tree(nil), t.c.trees...)
	t.c.treeMu.Unlock()
	for _, other := range trees {
		if other == t {
			continue
		}
		oh := other.tr.NewHandle(cs, int(sessionSeq.Add(1)))
		oh.SetClock(h.C.Now())
		n, ok := oh.RecoverStructure()
		rs.SplitRepairs += n
		if !ok {
			return rs, fmt.Errorf("sherman: recovery pass budget exhausted on a sibling tree (%d repairs done); run Recover again", rs.SplitRepairs)
		}
	}
	rs.ForwardingDrained = t.tr.DrainDeadForwarding()
	return rs, nil
}

// RecoveryStats reports one Tree.Recover run: the number of half-done
// splits completed (which includes parent/root pointers repaired at
// migrated addresses), the forwarding entries of crashed migrations
// drained after the sweep, and the virtual time the sweep took — the
// recovery latency a real deployment would observe.
type RecoveryStats struct {
	SplitRepairs      int
	ForwardingDrained int
	VirtualNS         int64
}

// CacheStats reports compute server cs's index-cache effectiveness.
func (t *Tree) CacheStats(cs int) CacheStats {
	ic := t.tr.Cache(cs)
	return CacheStats{
		Entries:          ic.Len(),
		PinnedEntries:    ic.PinnedLen(),
		Capacity:         ic.Limit(),
		Levels:           ic.Levels(),
		Hits:             ic.Hits(),
		Misses:           ic.Misses(),
		Evictions:        ic.Evictions(),
		Invalidations:    ic.Invalidations(),
		AdmissionRejects: ic.AdmissionRejects(),
	}
}

// CacheStats summarizes one compute server's unified index cache (§4.2.3):
// the budgeted entries and their capacity, the pinned top-level entries
// riding outside the budget, hit/miss aggregates, budget-pressure
// evictions, staleness invalidations (failed speculative validations,
// migrated chunks, reclaimed-lock repairs), and inserts the frequency gate
// turned away under level pressure. The budget charges each entry the
// bytes of its compact routing copy, a fraction of a node, while Capacity
// is the budget in full-node units, so Entries can exceed Capacity several
// times over.
type CacheStats struct {
	Entries          int
	PinnedEntries    int
	Capacity         int
	Levels           int
	Hits             int64
	Misses           int64
	Evictions        int64
	Invalidations    int64
	AdmissionRejects int64
}
