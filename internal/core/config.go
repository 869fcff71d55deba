// Package core implements the Sherman distributed B+Tree (§4): a B-link
// tree spread across memory servers, manipulated purely with one-sided RDMA
// verbs — lock-free reads validated by versions, exclusive-locked writes via
// HOCL, command combination on write-backs, and the two-level version layout
// that shrinks non-structural write-backs to a single entry.
//
// The same engine, reconfigured, is the FG+ baseline the paper compares
// against (§5.1.2): sorted checksum-protected nodes, host-memory spin locks,
// no command combination — which makes the ablation of Figures 10/11 a
// matter of flipping Config fields one at a time.
package core

import (
	"sherman/internal/hocl"
	"sherman/internal/layout"
)

// Config selects the tree variant.
type Config struct {
	// Format is the node geometry and consistency mode.
	Format layout.Format

	// Combine posts dependent WRITEs (write-back + lock release, split
	// sibling + node + release) as one doorbell batch (§4.5).
	Combine bool

	// AcquireDoorbell posts the lock CAS and the READ of the node it
	// protects as one doorbell (hocl.LockRead): §4.5's combining applied to
	// the acquire side, one round trip fewer per write. The published write
	// (the reproduction figures) keeps it off.
	AcquireDoorbell bool

	// Locks configures HOCL (§4.3); hocl.Baseline() gives FG-style host
	// memory spin locks.
	Locks hocl.Mode

	// LocksPerMS sizes each global lock table (0 = hocl default).
	LocksPerMS int

	// CacheBytes bounds each compute server's budgeted index-cache region
	// (§4.2.3). The paper gives each CS 500 MB; scale with the tree. 0
	// means 64 MB; the pinned top two levels ride outside the budget.
	CacheBytes int64

	// CacheLevels is the budgeted caching depth: tree levels 1..CacheLevels
	// are cacheable below the always-pinned top two levels. 0 means the
	// default (2); 1 reproduces the paper's flat level-1-only type-1 cache;
	// negative disables the budgeted region entirely (top levels only).
	CacheLevels int

	// BulkFill is the bulkload fill factor (the paper loads 80% full).
	// 0 means 0.8.
	BulkFill float64

	// Poison fills recycled hot-path scratch (the per-handle arena and the
	// pooled write-op lists) with 0xDB when released, so a reuse-after-free —
	// code retaining a buffer past its operation — reads deterministic
	// garbage instead of a stale-but-plausible node image. Debug aid for the
	// differential oracle suite; costs a memset per operation.
	Poison bool
}

// Name returns a short label for reports.
func (c Config) Name() string {
	switch {
	case c.Format.Mode == layout.TwoLevel && c.Combine && c.Locks == hocl.Sherman():
		return "Sherman"
	case c.Format.Mode == layout.Checksum && !c.Combine && c.Locks == hocl.Baseline():
		return "FG+"
	default:
		return "custom"
	}
}

func (c Config) bulkFill() float64 {
	if c.BulkFill == 0 {
		return 0.8
	}
	return c.BulkFill
}

// ShermanConfig is the full system: two-level versions, command combination
// at both ends of the critical section, hierarchical on-chip locks. The
// paper's reproduction figures run AblationConfig(StepTwoLevelVer), the
// published write without the acquire doorbell.
func ShermanConfig() Config {
	return Config{
		Format:          layout.DefaultFormat(layout.TwoLevel),
		Combine:         true,
		AcquireDoorbell: true,
		Locks:           hocl.Sherman(),
	}
}

// FGPlusConfig is the strengthened baseline of §5.1.2: FG's design (sorted
// checksum nodes, one-sided spin locks) plus the fairness optimizations the
// authors added (index cache, WRITE-based lock release).
func FGPlusConfig() Config {
	return Config{
		Format:  layout.DefaultFormat(layout.Checksum),
		Combine: false,
		Locks:   hocl.Baseline(),
	}
}

// AblationStep identifies one bar group of Figures 10 and 11; each step adds
// one technique on top of the previous.
type AblationStep int

// Ablation steps, in the paper's order.
const (
	StepFGPlus AblationStep = iota
	StepCombine
	StepOnChip
	StepHierarchical
	StepTwoLevelVer
	// StepAcquireDoorbell is this repo's sixth bar: the published system
	// plus the acquire doorbell, which is ShermanConfig.
	StepAcquireDoorbell
)

// String names the step as the figures do.
func (s AblationStep) String() string {
	return [...]string{"FG+", "+Combine", "+On-Chip", "+Hierarchical", "+2-Level Ver", "+Acquire Doorbell"}[s]
}

// AblationConfig returns the tree configuration for a step.
func AblationConfig(s AblationStep) Config {
	c := FGPlusConfig()
	if s >= StepCombine {
		c.Combine = true
	}
	if s >= StepOnChip {
		c.Locks.OnChip = true
	}
	if s >= StepHierarchical {
		c.Locks.Local = true
		c.Locks.WaitQueue = true
		c.Locks.Handover = true
	}
	if s >= StepTwoLevelVer {
		c.Format = layout.DefaultFormat(layout.TwoLevel)
	}
	if s >= StepAcquireDoorbell {
		c.AcquireDoorbell = true
	}
	return c
}

// AblationSteps lists all steps in order.
func AblationSteps() []AblationStep {
	return []AblationStep{StepFGPlus, StepCombine, StepOnChip, StepHierarchical, StepTwoLevelVer, StepAcquireDoorbell}
}
