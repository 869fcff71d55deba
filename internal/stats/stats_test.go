package stats

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

// TestHistPercentileAccuracy compares histogram percentiles against exact
// percentiles of the same samples; the log-linear layout guarantees <= ~6%
// relative error per bucket.
func TestHistPercentileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	h := NewHist()
	samples := make([]int64, 0, 50_000)
	for i := 0; i < 50_000; i++ {
		// Log-uniform samples spanning ns to tens of ms, like latencies.
		v := int64(math.Exp(rng.Float64() * 17))
		h.Record(v)
		samples = append(samples, v)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := samples[int(math.Ceil(p/100*float64(len(samples))))-1]
		got := h.Percentile(p)
		rel := math.Abs(float64(got-exact)) / float64(exact)
		if rel > 0.10 {
			t.Errorf("p%.1f: hist %d vs exact %d (rel err %.3f)", p, got, exact, rel)
		}
	}
}

func TestHistBasics(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Percentile(50) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Record(10)
	h.Record(20)
	h.Record(30)
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if h.Min() != 10 || h.Max() != 30 {
		t.Errorf("min/max = %d/%d, want 10/30", h.Min(), h.Max())
	}
	if h.Mean() != 20 {
		t.Errorf("mean = %v, want 20", h.Mean())
	}
	if got := h.Percentile(100); got != 30 {
		t.Errorf("p100 = %d, want 30", got)
	}
	if got := h.Percentile(1); got != 10 {
		t.Errorf("p1 = %d, want 10", got)
	}
	h.Record(-5) // clamps to 0
	if h.Min() != 0 {
		t.Errorf("min after negative record = %d, want 0", h.Min())
	}
}

func TestHistMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	whole, a, b := NewHist(), NewHist(), NewHist()
	for i := 0; i < 10_000; i++ {
		v := int64(rng.Uint64N(1 << 30))
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(b)
	a.Merge(nil)       // no-op
	a.Merge(NewHist()) // empty no-op
	if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: count %d/%d min %d/%d max %d/%d",
			a.Count(), whole.Count(), a.Min(), whole.Min(), a.Max(), whole.Max())
	}
	for _, p := range []float64{50, 90, 99} {
		if a.Percentile(p) != whole.Percentile(p) {
			t.Errorf("p%v: merged %d, whole %d", p, a.Percentile(p), whole.Percentile(p))
		}
	}
}

// TestBucketRoundTrip: bucketLow(bucketOf(v)) <= v for all v, and bucketOf
// is monotone non-decreasing.
func TestBucketRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		v := int64(raw)
		b := bucketOf(v)
		return bucketLow(b) <= v && bucketOf(v+1) >= b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20_000}); err != nil {
		t.Error(err)
	}
}

// loopLeadingZeros is the bit-by-bit count bucketOf used before
// math/bits, kept as the reference for TestBucketOfPinned.
func loopLeadingZeros(x uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if x&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// TestBucketOfPinned checks bucketOf, and bucketLow of its bucket, against
// the loop-based bucketing at 0, 1, every power of two, its neighbours and
// MaxInt64, so recorded histograms bucket exactly as before.
func TestBucketOfPinned(t *testing.T) {
	ref := func(v int64) int {
		if v < subBuckets {
			return int(v)
		}
		exp := 63 - loopLeadingZeros(uint64(v))
		sub := int(v>>(uint(exp)-subBucketBits)) & (subBuckets - 1)
		return (exp-subBucketBits+1)*subBuckets + sub
	}
	vals := []int64{0, 1, math.MaxInt64}
	for k := 1; k < 63; k++ {
		vals = append(vals, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, v := range vals {
		b, want := bucketOf(v), ref(v)
		if b != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, b, want)
		}
		if lo := bucketLow(b); lo > v || (v&(v-1) == 0 && lo != v) {
			t.Fatalf("bucketLow(bucketOf(%d)) = %d", v, lo)
		}
	}
}

func TestHistCDF(t *testing.T) {
	h := NewHist()
	for i := 1; i <= 100; i++ {
		h.Record(int64(i))
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	last := 0.0
	for _, pt := range cdf {
		if pt.Fraction < last {
			t.Fatalf("CDF not monotone at value %d", pt.Value)
		}
		last = pt.Fraction
	}
	if math.Abs(last-1.0) > 1e-9 {
		t.Errorf("CDF ends at %v, want 1.0", last)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter(8)
	for v := 0; v < 12; v++ { // values 8..11 clamp into bin 7
		c.Record(v)
	}
	c.Record(-3) // clamps to 0
	if c.Count() != 13 {
		t.Errorf("count = %d, want 13", c.Count())
	}
	if got := c.Fraction(0); math.Abs(got-2.0/13) > 1e-9 {
		t.Errorf("fraction(0) = %v, want 2/13", got)
	}
	if got := c.Fraction(7); math.Abs(got-5.0/13) > 1e-9 {
		t.Errorf("fraction(7) = %v (clamped bin), want 5/13", got)
	}
	if got := c.Fraction(99); got != 0 {
		t.Errorf("fraction out of domain = %v, want 0", got)
	}
	if got := c.PercentileValue(1); got != 0 {
		t.Errorf("p1 = %d, want 0", got)
	}
	if got := c.PercentileValue(100); got != 7 {
		t.Errorf("p100 = %d, want 7", got)
	}

	d := NewCounter(4)
	d.Record(3)
	c.Merge(d)
	c.Merge(nil)
	if c.Count() != 14 {
		t.Errorf("merged count = %d, want 14", c.Count())
	}

	// Merging a wider counter into a narrower one clamps the tail.
	narrow := NewCounter(2)
	wide := NewCounter(8)
	wide.Record(5)
	narrow.Merge(wide)
	if narrow.Fraction(1) != 1 {
		t.Error("wide bin did not clamp into narrow tail")
	}
}

func TestSizeHist(t *testing.T) {
	s := NewSizeHist()
	s.Record(17)
	s.Record(17)
	s.Record(1024)
	pts := s.Points()
	if len(pts) != 2 || pts[0].Value != 17 || pts[1].Value != 1024 {
		t.Fatalf("points = %+v", pts)
	}
	if math.Abs(pts[0].Fraction-2.0/3) > 1e-9 {
		t.Errorf("fraction(17) = %v, want 2/3", pts[0].Fraction)
	}
	other := NewSizeHist()
	other.Record(17)
	s.Merge(other)
	s.Merge(nil)
	if s.Count() != 4 {
		t.Errorf("count = %d, want 4", s.Count())
	}
	if str := s.String(); str == "" {
		t.Error("String() empty")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	r.RecordOp(OpLookup, 1000)
	r.RecordOp(OpInsert, 2000)
	r.RecordOp(OpInsert, 3000)
	r.RecordOp(OpRange, 4000)
	if r.TotalOps() != 4 {
		t.Errorf("total ops = %d, want 4", r.TotalOps())
	}
	if r.Ops[OpInsert] != 2 {
		t.Errorf("inserts = %d, want 2", r.Ops[OpInsert])
	}
	if r.AllLatency.Count() != 4 {
		t.Errorf("all-latency count = %d, want 4", r.AllLatency.Count())
	}

	r.CacheHits, r.CacheMisses = 3, 1
	if got := r.HitRatio(); got != 0.75 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
	empty := NewRecorder()
	if empty.HitRatio() != 0 {
		t.Error("empty recorder hit ratio should be 0")
	}

	o := NewRecorder()
	o.RecordOp(OpDelete, 500)
	o.FinishV = 99
	o.Handovers = 2
	r.Merge(o)
	r.Merge(nil)
	if r.TotalOps() != 5 || r.FinishV != 99 || r.Handovers != 2 {
		t.Errorf("merge: ops=%d finish=%d handovers=%d", r.TotalOps(), r.FinishV, r.Handovers)
	}
}

func TestOpKindString(t *testing.T) {
	for k, want := range map[OpKind]string{
		OpLookup: "lookup", OpInsert: "insert", OpDelete: "delete", OpRange: "range",
		OpKind(99): "unknown",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !OpInsert.IsWrite() || !OpDelete.IsWrite() || OpLookup.IsWrite() || OpRange.IsWrite() {
		t.Error("IsWrite classification wrong")
	}
}

func TestThroughputMops(t *testing.T) {
	if got := ThroughputMops(1000, 1_000_000); got != 1.0 {
		t.Errorf("1000 ops / 1ms = %v Mops, want 1", got)
	}
	if got := ThroughputMops(100, 0); got != 0 {
		t.Errorf("zero makespan = %v, want 0", got)
	}
	if got := ThroughputMops(100, -5); got != 0 {
		t.Errorf("negative makespan = %v, want 0", got)
	}
}

// TestLeadingZeros checks the reference loop TestBucketOfPinned compares
// against, and that math/bits agrees with it.
func TestLeadingZeros(t *testing.T) {
	cases := map[uint64]int{1: 63, 2: 62, 1 << 63: 0, 0: 64, 0xff: 56}
	for v, want := range cases {
		if got := loopLeadingZeros(v); got != want {
			t.Errorf("loopLeadingZeros(%#x) = %d, want %d", v, got, want)
		}
		if got := bits.LeadingZeros64(v); got != want {
			t.Errorf("bits.LeadingZeros64(%#x) = %d, want %d", v, got, want)
		}
	}
}
