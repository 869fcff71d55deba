// Package workload generates YCSB-style key-value workloads (§5.1.3): five
// operation mixes over uniform or Zipfian key popularity, with the standard
// scrambled-Zipfian construction so that popular keys scatter across the key
// space rather than clustering in one B+Tree leaf.
package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Op is one generated index operation.
type Op struct {
	Kind  Kind
	Key   uint64
	Value uint64
	// Span is the requested result count for range queries.
	Span int
}

// Kind enumerates operation types.
type Kind int

// Operation types. Insert covers both inserting new keys and updating
// existing ones (the paper folds updates into "insert": §1 footnote 1, and
// ~2/3 of insert operations update existing keys, §5.1.3).
const (
	Lookup Kind = iota
	Insert
	Delete
	Range
)

// String names the kind.
func (k Kind) String() string {
	return [...]string{"lookup", "insert", "delete", "range"}[k]
}

// Mix is an operation mix in percent; fields must sum to 100.
type Mix struct {
	LookupPct int
	InsertPct int
	DeletePct int
	RangePct  int
}

// The five mixes of Table 3.
var (
	ReadOnly       = Mix{LookupPct: 100}
	WriteOnly      = Mix{InsertPct: 100}
	WriteIntensive = Mix{LookupPct: 50, InsertPct: 50}
	ReadIntensive  = Mix{LookupPct: 95, InsertPct: 5}
	RangeOnly      = Mix{RangePct: 100}
	RangeWrite     = Mix{InsertPct: 50, RangePct: 50}
)

// Validate checks that the mix sums to 100%.
func (m Mix) Validate() error {
	if s := m.LookupPct + m.InsertPct + m.DeletePct + m.RangePct; s != 100 {
		return fmt.Errorf("workload: mix sums to %d%%, want 100%%", s)
	}
	return nil
}

// Dist selects the key-popularity distribution.
type Dist int

// Key popularity distributions.
const (
	// Uniform gives all keys equal probability.
	Uniform Dist = iota
	// Zipfian draws ranks from a Zipf distribution and scrambles them over
	// the key space (YCSB's ScrambledZipfian).
	Zipfian
)

// Config describes one workload.
type Config struct {
	Mix Mix
	// Keys is the key-space size; generated keys are in [1, Keys] (key 0 is
	// reserved as the tree's empty sentinel).
	Keys uint64
	Dist Dist
	// Theta is the Zipfian skewness (0.99 in the paper's skewed runs).
	Theta float64
	// RangeSpan is the result count of range queries (100 or 1000 in
	// Figure 12).
	RangeSpan int
	// UpdateFraction is the share of Insert operations that target existing
	// (bulkloaded) keys rather than new ones; the paper uses about 2/3.
	UpdateFraction float64
	// LoadedFraction is the share of the key space that was bulkloaded (the
	// paper loads trees 80% full).
	LoadedFraction float64
}

// DefaultConfig fills in the paper's defaults for the given mix and
// distribution.
func DefaultConfig(mix Mix, dist Dist, keys uint64) Config {
	return Config{
		Mix:            mix,
		Keys:           keys,
		Dist:           dist,
		Theta:          0.99,
		RangeSpan:      100,
		UpdateFraction: 2.0 / 3.0,
		LoadedFraction: 0.8,
	}
}

// Generator produces operations for one client thread. It is not safe for
// concurrent use; create one per thread with distinct seeds.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	zipf *ZipfGen
	cum  [4]int
}

// NewGenerator builds a thread-local generator. Generators sharing a Config
// may share the (immutable after construction) Zipf tables via NewGeneratorFrom.
func NewGenerator(cfg Config, seed uint64) *Generator {
	if err := cfg.Mix.Validate(); err != nil {
		panic(err)
	}
	if cfg.Keys == 0 {
		panic("workload: empty key space")
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
	if cfg.Dist == Zipfian {
		g.zipf = NewZipfGen(cfg.Keys, cfg.Theta)
	}
	g.cum[0] = cfg.Mix.LookupPct
	g.cum[1] = g.cum[0] + cfg.Mix.InsertPct
	g.cum[2] = g.cum[1] + cfg.Mix.DeletePct
	g.cum[3] = g.cum[2] + cfg.Mix.RangePct
	return g
}

// NewGeneratorFrom builds a generator that shares base's Zipf tables
// (computing zeta once per experiment instead of once per thread).
func NewGeneratorFrom(base *Generator, seed uint64) *Generator {
	g := &Generator{
		cfg:  base.cfg,
		rng:  rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		zipf: base.zipf,
		cum:  base.cum,
	}
	return g
}

// NextKey draws one key in [1, Keys] from the configured distribution.
func (g *Generator) NextKey() uint64 {
	if g.zipf != nil {
		rank := g.zipf.Next(g.rng)
		return scramble(rank, g.cfg.Keys)
	}
	return g.rng.Uint64N(g.cfg.Keys) + 1
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	p := int(g.rng.Uint64N(100))
	var kind Kind
	switch {
	case p < g.cum[0]:
		kind = Lookup
	case p < g.cum[1]:
		kind = Insert
	case p < g.cum[2]:
		kind = Delete
	default:
		kind = Range
	}
	op := Op{Kind: kind, Key: g.NextKey()}
	switch kind {
	case Insert:
		op.Value = g.rng.Uint64()
		if op.Value == 0 {
			op.Value = 1
		}
		if g.rng.Float64() >= g.cfg.UpdateFraction {
			// An insert of a (probably) new key: draw from the unloaded
			// 20% tail of each key's hash bucket by flipping high bits.
			op.Key = g.freshKey(op.Key)
		}
	case Range:
		op.Span = g.cfg.RangeSpan
	}
	return op
}

// NextBatch returns the next n operations as one batch — the YCSB-style
// batched-client pattern where a client submits a group of operations at
// once and the driver hands same-kind runs to the index's batch entry
// points.
func (g *Generator) NextBatch(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = g.Next()
	}
	return ops
}

// freshKey maps a drawn key to a likely-unloaded key deterministically so
// repeated inserts still contend realistically.
func (g *Generator) freshKey(k uint64) uint64 {
	loaded := uint64(float64(g.cfg.Keys) * g.cfg.LoadedFraction)
	if loaded >= g.cfg.Keys {
		return k
	}
	return loaded + 1 + (mix64(k) % (g.cfg.Keys - loaded))
}

// LoadedKeys returns the number of keys a harness should bulkload for this
// config (keys 1..LoadedKeys).
func (c Config) LoadedKeys() uint64 {
	n := uint64(float64(c.Keys) * c.LoadedFraction)
	if n == 0 {
		n = 1
	}
	return n
}

// scramble spreads Zipf rank r (0-based; rank 0 is the hottest) over
// [1, keys] with an FNV-style hash, as YCSB's ScrambledZipfian does.
func scramble(r, keys uint64) uint64 {
	return mix64(r)%keys + 1
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ZipfGen draws 0-based ranks with P(rank=k) proportional to 1/(k+1)^theta,
// using Gray et al.'s rejection-free method as in YCSB. Construction costs
// O(n) for exact zeta below zetaExactLimit and uses the standard closed-form
// approximation above it (so billion-key spaces are cheap).
type ZipfGen struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // zeta(2, theta)
}

const zetaExactLimit = 1 << 24

// NewZipfGen builds the generator for ranks [0, n).
func NewZipfGen(n uint64, theta float64) *ZipfGen {
	if n == 0 {
		panic("workload: zipf over empty domain")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipf theta %v outside (0,1)", theta))
	}
	z := &ZipfGen{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.half = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/z.zetan)
	return z
}

// Next draws one rank.
func (z *ZipfGen) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// zeta computes the generalized harmonic number H_{n,theta}, exactly for
// small n and via the integral approximation for large n (the error is far
// below the simulator's fidelity).
func zeta(n uint64, theta float64) float64 {
	if n <= zetaExactLimit {
		var s float64
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	base := zeta(zetaExactLimit, theta)
	// Integral of x^-theta from zetaExactLimit to n.
	a := 1 - theta
	return base + (math.Pow(float64(n), a)-math.Pow(float64(zetaExactLimit), a))/a
}
