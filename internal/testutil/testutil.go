// Package testutil is the shared deterministic test harness: the
// TwoLevel/Checksum × Combine configuration matrix, the fabric axis, seeded
// RNG streams, cluster/tree setup with Validate-on-exit, and the in-memory
// model map the differential oracle suites check the tree against. Before
// it existed, every property suite (batch, pipeline, fault, core) carried
// its own copy of this grid-runner; they all run on this one now, so a new
// suite is a function body, not another scaffold.
//
// The fabric axis (Fabrics, RunFabrics) runs one suite on both fabrics
// instead of a suite plus hand-built copies: Sim is the virtual-time
// simulator, TCP the real network over in-process memory servers with
// heartbeats off. Each builds a Deployment, a core.Backend plus a hook that
// kills a memory server the fabric's way, and KillAfter decorates one to
// kill the server a chosen read verb addressed, between two verbs of one
// operation.
package testutil

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"sherman/internal/cluster"
	"sherman/internal/core"
	"sherman/internal/hocl"
	"sherman/internal/layout"
)

// SmallNodeSize is the node size the grids default to: tiny nodes force
// deep trees and frequent splits at test scale.
const SmallNodeSize = 256

// Axes is one cell of the ablation matrix every equivalence property must
// hold across: the consistency layout (two-level versions vs checksum) ×
// command combination on or off. The lock mode rides along with the layout
// — Sherman's on-chip hierarchical locks with the two-level layout, the
// FG-style host-memory baseline with checksums — so both lock-word formats
// are exercised too.
type Axes struct {
	TwoLevel bool
	Combine  bool
}

// Matrix returns all four cells.
func Matrix() []Axes {
	return []Axes{
		{TwoLevel: true, Combine: true},
		{TwoLevel: true, Combine: false},
		{TwoLevel: false, Combine: true},
		{TwoLevel: false, Combine: false},
	}
}

// Name renders the cell for subtest names.
func (a Axes) Name() string {
	mode := "checksum"
	if a.TwoLevel {
		mode = "two-level"
	}
	return fmt.Sprintf("%s/combine=%v", mode, a.Combine)
}

// Config builds the cell's core configuration at the given node size (0 =
// SmallNodeSize), with a deliberately small lock table so grid tests that
// build many clusters stay light.
func (a Axes) Config(nodeSize int) core.Config {
	if nodeSize == 0 {
		nodeSize = SmallNodeSize
	}
	mode, locks := layout.Checksum, hocl.Baseline()
	if a.TwoLevel {
		mode, locks = layout.TwoLevel, hocl.Sherman()
	}
	return core.Config{
		Format:     layout.NewFormat(mode, 8, nodeSize),
		Combine:    a.Combine,
		Locks:      locks,
		LocksPerMS: 1024,
	}
}

// SmallFormat is the classic small-node format used across core tests.
func SmallFormat(mode layout.Mode) layout.Format {
	return layout.NewFormat(mode, 8, SmallNodeSize)
}

// Configs returns the two standard full-system configurations — Sherman and
// FG+ — at the small test geometry (the historic configsUnderTest pair).
func Configs() []core.Config {
	sherman := core.ShermanConfig()
	sherman.Format = SmallFormat(layout.TwoLevel)
	fg := core.FGPlusConfig()
	fg.Format = SmallFormat(layout.Checksum)
	return []core.Config{sherman, fg}
}

// RunMatrix runs fn once per matrix cell, as named subtests.
func RunMatrix(t *testing.T, fn func(t *testing.T, ax Axes)) {
	t.Helper()
	for _, ax := range Matrix() {
		t.Run(ax.Name(), func(t *testing.T) { fn(t, ax) })
	}
}

// RunConfigs runs fn once per standard configuration, as named subtests.
func RunConfigs(t *testing.T, fn func(t *testing.T, cfg core.Config)) {
	t.Helper()
	for _, cfg := range Configs() {
		t.Run(cfg.Name(), func(t *testing.T) { fn(t, cfg) })
	}
}

// RunSeeds runs fn for seeds 1..n as named subtests — the deterministic
// replacement for testing/quick: a failure names the seed, and re-running
// the same binary reproduces it exactly.
func RunSeeds(t *testing.T, n int, fn func(t *testing.T, seed uint64)) {
	t.Helper()
	for seed := uint64(1); seed <= uint64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { fn(t, seed) })
	}
}

// RNG returns the deterministic random stream for a seed. All harness users
// derive their randomness here so a test's behavior is a pure function of
// its seed.
func RNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x7e57ab1e))
}

// NewCluster builds a test cluster (with scale-out headroom, so elastic
// suites can add servers without special setup).
func NewCluster(tb testing.TB, numMS, numCS int) *cluster.Cluster {
	tb.Helper()
	return cluster.New(cluster.Config{NumMS: numMS, NumCS: numCS, MaxMS: numMS + 4})
}

// NewTree creates a tree and registers Validate-on-exit: when the test (and
// every goroutine it waited for) is done, the tree's structural invariants
// are checked once more, so a suite cannot pass while quietly corrupting
// the tree. Skipped when the test already failed — the original failure is
// the interesting one.
func NewTree(tb testing.TB, cl *cluster.Cluster, cfg core.Config) *core.Tree {
	tb.Helper()
	tr := core.New(cl, cfg)
	tb.Cleanup(func() {
		if tb.Failed() {
			return
		}
		if err := tr.Validate(); err != nil {
			tb.Errorf("Validate on exit: %v", err)
		}
	})
	return tr
}

// Bulk loads n sequential keys (1..n) with the harness's derived values
// (BulkValue) and returns them.
func Bulk(tb testing.TB, tr *core.Tree, n int) []layout.KV {
	tb.Helper()
	kvs := make([]layout.KV, n)
	for i := range kvs {
		k := uint64(i + 1)
		kvs[i] = layout.KV{Key: k, Value: BulkValue(k)}
	}
	if err := tr.Bulkload(kvs); err != nil {
		tb.Fatal(err)
	}
	return kvs
}

// BulkValue derives the deterministic bulkloaded value of a key.
func BulkValue(k uint64) uint64 {
	v := k * 0x9e3779b97f4a7c15
	if v == 0 {
		v = 1
	}
	return v
}

// Model is the in-memory reference map of the differential oracle: the
// obviously-correct single-threaded implementation of the tree's contract
// that random operation streams are checked against.
type Model struct {
	m map[uint64]uint64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{m: make(map[uint64]uint64)} }

// Put stores (k, v).
func (m *Model) Put(k, v uint64) { m.m[k] = v }

// Get returns the stored value.
func (m *Model) Get(k uint64) (uint64, bool) {
	v, ok := m.m[k]
	return v, ok
}

// Delete removes k, reporting whether it was present.
func (m *Model) Delete(k uint64) bool {
	_, ok := m.m[k]
	delete(m.m, k)
	return ok
}

// Scan returns up to span pairs with key >= from in ascending order.
func (m *Model) Scan(from uint64, span int) []layout.KV {
	keys := make([]uint64, 0, len(m.m))
	for k := range m.m {
		if k >= from {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) > span {
		keys = keys[:span]
	}
	out := make([]layout.KV, len(keys))
	for i, k := range keys {
		out[i] = layout.KV{Key: k, Value: m.m[k]}
	}
	return out
}

// Len returns the number of live keys.
func (m *Model) Len() int { return len(m.m) }
