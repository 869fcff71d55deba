package workload

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMixValidate(t *testing.T) {
	good := []Mix{WriteOnly, WriteIntensive, ReadIntensive, RangeOnly, RangeWrite,
		{LookupPct: 25, InsertPct: 25, DeletePct: 25, RangePct: 25}}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", m, err)
		}
	}
	bad := []Mix{
		{},
		{LookupPct: 99},
		{LookupPct: 50, InsertPct: 51},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
}

// TestGeneratorMixProportions draws many operations and checks each class
// appears in roughly its configured proportion.
func TestGeneratorMixProportions(t *testing.T) {
	cfg := DefaultConfig(Mix{LookupPct: 50, InsertPct: 30, DeletePct: 15, RangePct: 5}, Uniform, 10_000)
	g := NewGenerator(cfg, 1)
	const n = 100_000
	var counts [4]int
	for i := 0; i < n; i++ {
		counts[g.Next().Kind]++
	}
	want := [4]float64{0.50, 0.30, 0.15, 0.05}
	for k, w := range want {
		got := float64(counts[k]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("%v: proportion %.3f, want %.2f +- 0.01", Kind(k), got, w)
		}
	}
}

// TestKeysInRange checks every generated key is in [1, Keys] for both
// distributions (key 0 is the reserved sentinel).
func TestKeysInRange(t *testing.T) {
	for _, dist := range []Dist{Uniform, Zipfian} {
		cfg := DefaultConfig(WriteIntensive, dist, 1000)
		g := NewGenerator(cfg, 7)
		for i := 0; i < 50_000; i++ {
			op := g.Next()
			if op.Key == 0 || op.Key > cfg.Keys {
				t.Fatalf("dist %v: key %d outside [1,%d]", dist, op.Key, cfg.Keys)
			}
		}
	}
}

// TestZipfSkew verifies the Zipfian generator concentrates mass on few keys:
// with theta=0.99 the hottest key should receive a few percent of draws, and
// higher theta must concentrate more than lower theta.
func TestZipfSkew(t *testing.T) {
	const n, draws = 10_000, 200_000
	rng := rand.New(rand.NewPCG(1, 2))
	topShare := func(theta float64) float64 {
		z := NewZipfGen(n, theta)
		hot := 0
		for i := 0; i < draws; i++ {
			if z.Next(rng) == 0 {
				hot++
			}
		}
		return float64(hot) / draws
	}
	s99 := topShare(0.99)
	s80 := topShare(0.80)
	// zeta(10000, 0.99) ~ 10.75, so rank 0 gets ~9.3% of draws.
	if s99 < 0.06 || s99 > 0.14 {
		t.Errorf("theta=0.99 top-rank share %.3f, want ~0.093", s99)
	}
	if s99 <= s80 {
		t.Errorf("skew ordering violated: share(0.99)=%.3f <= share(0.80)=%.3f", s99, s80)
	}
}

// TestZipfRankDecreasing checks that lower ranks (hotter) receive at least
// as many draws as higher ranks, in aggregate buckets.
func TestZipfRankDecreasing(t *testing.T) {
	const n, draws = 1000, 300_000
	z := NewZipfGen(n, 0.99)
	rng := rand.New(rand.NewPCG(3, 4))
	var buckets [10]int // rank deciles
	for i := 0; i < draws; i++ {
		r := z.Next(rng)
		buckets[r*10/n]++
	}
	for i := 1; i < len(buckets); i++ {
		// Allow small noise between adjacent deciles but require the first
		// decile to dominate the last decisively.
		if buckets[i] > buckets[i-1]*2 {
			t.Errorf("decile %d (%d draws) more than double decile %d (%d)", i, buckets[i], i-1, buckets[i-1])
		}
	}
	if buckets[0] < buckets[9]*5 {
		t.Errorf("first decile %d not dominant over last %d", buckets[0], buckets[9])
	}
}

// TestZetaApproximation checks the large-n zeta path agrees with direct
// summation at the crossover boundary.
func TestZetaApproximation(t *testing.T) {
	theta := 0.99
	// Just above the exact limit, the approximation must be close to an
	// exact sum extended by brute force over the tail.
	n := uint64(zetaExactLimit + 1000)
	exact := zeta(zetaExactLimit, theta)
	for i := uint64(zetaExactLimit + 1); i <= n; i++ {
		exact += 1 / math.Pow(float64(i), theta)
	}
	approx := zeta(n, theta)
	if rel := math.Abs(approx-exact) / exact; rel > 1e-6 {
		t.Errorf("zeta(%d): approx %.9f vs exact %.9f (rel err %.2e)", n, approx, exact, rel)
	}
}

// TestScrambleBijectionish: scramble must be deterministic and spread ranks
// across the space without heavy collisions at small scales.
func TestScrambleBijectionish(t *testing.T) {
	const keys = 1 << 16
	seen := make(map[uint64]int)
	for r := uint64(0); r < keys; r++ {
		k := scramble(r, keys)
		if k == 0 || k > keys {
			t.Fatalf("scramble(%d) = %d outside [1,%d]", r, k, keys)
		}
		seen[k]++
	}
	// mix64 is a bijection on 64 bits; modding by keys introduces collisions
	// at the birthday level. With 65536 ranks into 65536 slots we expect
	// ~63.2% distinct (balls in bins), not a degenerate clustering.
	if len(seen) < keys/2 {
		t.Errorf("scramble hits only %d/%d distinct keys", len(seen), keys)
	}
	if scramble(42, keys) != scramble(42, keys) {
		t.Error("scramble not deterministic")
	}
}

// TestFreshKeyTargetsUnloadedTail: inserts flagged as "new key" must land in
// the unloaded tail (above LoadedKeys) so they are genuine inserts.
func TestFreshKeyTargetsUnloadedTail(t *testing.T) {
	cfg := DefaultConfig(WriteOnly, Uniform, 1000)
	cfg.UpdateFraction = 0 // every insert is a fresh key
	g := NewGenerator(cfg, 9)
	loaded := cfg.LoadedKeys()
	for i := 0; i < 10_000; i++ {
		op := g.Next()
		if op.Kind != Insert {
			t.Fatalf("write-only mix generated %v", op.Kind)
		}
		if op.Key <= loaded {
			t.Fatalf("fresh key %d inside loaded prefix [1,%d]", op.Key, loaded)
		}
	}
}

// TestUpdateFractionRespected: with UpdateFraction=1 inserts keep the drawn
// key (updates may target any existing key in [1, Keys]); with
// UpdateFraction=0 every insert is redirected into the unloaded tail. The
// fraction therefore shows up as the share of inserts inside the loaded
// prefix being roughly the prefix's natural probability.
func TestUpdateFractionRespected(t *testing.T) {
	cfg := DefaultConfig(WriteOnly, Uniform, 1000)
	cfg.UpdateFraction = 1
	g := NewGenerator(cfg, 11)
	loaded := cfg.LoadedKeys()
	inPrefix := 0
	const n = 10_000
	for i := 0; i < n; i++ {
		if op := g.Next(); op.Key <= loaded {
			inPrefix++
		}
	}
	// With UpdateFraction=1 keys are drawn uniformly over [1,1000], so ~80%
	// land in the loaded prefix; with redirection (fraction 0) it would be 0%.
	if got := float64(inPrefix) / n; got < 0.75 || got > 0.85 {
		t.Errorf("loaded-prefix share %.3f, want ~0.80", got)
	}
}

// TestRangeSpanPropagated: range operations carry the configured span.
func TestRangeSpanPropagated(t *testing.T) {
	cfg := DefaultConfig(RangeOnly, Uniform, 1000)
	cfg.RangeSpan = 123
	g := NewGenerator(cfg, 13)
	for i := 0; i < 100; i++ {
		op := g.Next()
		if op.Kind != Range || op.Span != 123 {
			t.Fatalf("op = %+v, want range with span 123", op)
		}
	}
}

// TestGeneratorDeterminism: same seed, same sequence; different seeds,
// different sequences.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := DefaultConfig(WriteIntensive, Zipfian, 100_000)
	a := NewGenerator(cfg, 42)
	b := NewGenerator(cfg, 42)
	c := NewGenerator(cfg, 43)
	sameAsC := 0
	for i := 0; i < 1000; i++ {
		oa, ob, oc := a.Next(), b.Next(), c.Next()
		if oa != ob {
			t.Fatalf("same-seed generators diverged at %d: %+v vs %+v", i, oa, ob)
		}
		if oa == oc {
			sameAsC++
		}
	}
	if sameAsC > 100 {
		t.Errorf("different seeds produced %d/1000 identical ops", sameAsC)
	}
}

// TestNewGeneratorFromSharesTables: a derived generator draws from the same
// distribution (same config) but its own stream.
func TestNewGeneratorFromSharesTables(t *testing.T) {
	cfg := DefaultConfig(WriteIntensive, Zipfian, 10_000)
	base := NewGenerator(cfg, 1)
	d1 := NewGeneratorFrom(base, 2)
	d2 := NewGeneratorFrom(base, 2)
	if d1.zipf != base.zipf {
		t.Error("derived generator did not share the zipf tables")
	}
	for i := 0; i < 100; i++ {
		if d1.Next() != d2.Next() {
			t.Fatal("same-seed derived generators diverged")
		}
	}
}

// TestInvalidConfigsPanic: constructor contract violations panic loudly.
func TestInvalidConfigsPanic(t *testing.T) {
	cases := []func(){
		func() { NewGenerator(Config{Mix: Mix{LookupPct: 10}, Keys: 10}, 1) }, // bad mix
		func() { NewGenerator(DefaultConfig(WriteOnly, Uniform, 0), 1) },      // no keys
		func() { NewZipfGen(0, 0.99) },                                        // empty domain
		func() { NewZipfGen(10, 0) },                                          // theta out of range
		func() { NewZipfGen(10, 1) },                                          // theta out of range
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: mix64 is a bijection (it has a known inverse structure; here we
// just check injectivity on random samples via quick).
func TestMix64Injective(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return mix64(a) != mix64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10_000}); err != nil {
		t.Error(err)
	}
}

// Property: NextKey always lands in [1, Keys] across random key-space sizes.
func TestNextKeyRangeProperty(t *testing.T) {
	f := func(seed uint64, keysRaw uint16) bool {
		keys := uint64(keysRaw)%100_000 + 1
		cfg := DefaultConfig(ReadIntensive, Zipfian, keys)
		g := NewGenerator(cfg, seed)
		for i := 0; i < 64; i++ {
			k := g.NextKey()
			if k == 0 || k > keys {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
