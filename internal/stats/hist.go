// Package stats provides the measurement machinery for the evaluation:
// log-bucketed latency histograms with percentile queries, linear counters
// for small-valued internal metrics (round trips, retries), and mergeable
// per-thread recorders so that hot paths never synchronize.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Hist is a log-linear histogram of non-negative int64 samples (virtual
// nanoseconds). Each power-of-two range is split into 16 sub-buckets, giving
// a worst-case quantile error of ~6% — ample for p50/p90/p99 reporting.
// Hist is not safe for concurrent use; keep one per thread and Merge.
type Hist struct {
	counts []int64
	n      int64
	sum    int64
	min    int64
	max    int64
}

const subBucketBits = 4
const subBuckets = 1 << subBucketBits

// NewHist creates an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make([]int64, 64*subBuckets), min: math.MaxInt64}
}

func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	// Top bit implied; next subBucketBits bits select the sub-bucket.
	sub := int(v>>(uint(exp)-subBucketBits)) & (subBuckets - 1)
	return (exp-subBucketBits+1)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket b (inverse of
// bucketOf, used to report percentiles).
func bucketLow(b int) int64 {
	if b < subBuckets {
		return int64(b)
	}
	exp := b/subBuckets + subBucketBits - 1
	sub := b % subBuckets
	return (int64(1) << uint(exp)) | int64(sub)<<(uint(exp)-subBucketBits)
}

// Record adds one sample.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.n }

// Mean returns the arithmetic mean of the samples (0 when empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min and Max return the extreme samples (0 when empty).
func (h *Hist) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *Hist) Max() int64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the p-th percentile (p in (0,100]) as the lower bound
// of the containing bucket, clamped to the observed min/max.
func (h *Hist) Percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= target {
			v := bucketLow(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// CDF returns (value, cumulativeFraction) pairs for every non-empty bucket,
// used to report distributions like Figure 14(b).
func (h *Hist) CDF() []CDFPoint {
	var out []CDFPoint
	var seen int64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		seen += c
		out = append(out, CDFPoint{Value: bucketLow(b), Fraction: float64(seen) / float64(h.n)})
	}
	return out
}

// CDFPoint is one point of a cumulative distribution.
type CDFPoint struct {
	Value    int64
	Fraction float64
}

// Counter is a small-domain exact histogram (e.g. retry counts 0..N, round
// trips per operation). Values beyond the domain clamp into the last bin.
type Counter struct {
	bins []int64
	n    int64
}

// NewCounter creates a counter over the domain [0, size).
func NewCounter(size int) *Counter { return &Counter{bins: make([]int64, size)} }

// Record adds one observation of value v.
func (c *Counter) Record(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(c.bins) {
		v = len(c.bins) - 1
	}
	c.bins[v]++
	c.n++
}

// Merge folds other into c.
func (c *Counter) Merge(other *Counter) {
	if other == nil {
		return
	}
	for i, v := range other.bins {
		if i < len(c.bins) {
			c.bins[i] += v
		} else {
			c.bins[len(c.bins)-1] += v
		}
	}
	c.n += other.n
}

// Count returns total observations.
func (c *Counter) Count() int64 { return c.n }

// Sum returns the total of all recorded values (observations beyond the
// domain contribute their clamped value).
func (c *Counter) Sum() int64 {
	var s int64
	for v, cnt := range c.bins {
		s += int64(v) * cnt
	}
	return s
}

// Mean returns the arithmetic mean of recorded values (0 when empty).
func (c *Counter) Mean() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.Sum()) / float64(c.n)
}

// Fraction returns the share of observations equal to v.
func (c *Counter) Fraction(v int) float64 {
	if c.n == 0 || v < 0 || v >= len(c.bins) {
		return 0
	}
	return float64(c.bins[v]) / float64(c.n)
}

// Bins returns a copy of the raw bins.
func (c *Counter) Bins() []int64 {
	out := make([]int64, len(c.bins))
	copy(out, c.bins)
	return out
}

// PercentileValue returns the smallest v such that at least p% of
// observations are <= v.
func (c *Counter) PercentileValue(p float64) int {
	if c.n == 0 {
		return 0
	}
	target := int64(math.Ceil(p / 100 * float64(c.n)))
	var seen int64
	for v, cnt := range c.bins {
		seen += cnt
		if seen >= target {
			return v
		}
	}
	return len(c.bins) - 1
}

// SizeHist is an exact histogram over arbitrary int64 values (write sizes).
// Cardinality is tiny — a handful of distinct IO sizes — so it keeps two
// parallel arrays scanned linearly: after each distinct size has appeared
// once, Record touches no map and never allocates, keeping the hot-path
// recorders allocation-free in steady state.
type SizeHist struct {
	vals   []int64
	counts []int64
	n      int64
}

// NewSizeHist creates an empty size histogram.
func NewSizeHist() *SizeHist {
	return &SizeHist{vals: make([]int64, 0, 8), counts: make([]int64, 0, 8)}
}

// Record adds one observation.
func (s *SizeHist) Record(v int64) {
	s.n++
	for i, sv := range s.vals {
		if sv == v {
			s.counts[i]++
			return
		}
	}
	s.vals = append(s.vals, v)
	s.counts = append(s.counts, 1)
}

// add folds cnt observations of v into s.
func (s *SizeHist) add(v, cnt int64) {
	s.n += cnt
	for i, sv := range s.vals {
		if sv == v {
			s.counts[i] += cnt
			return
		}
	}
	s.vals = append(s.vals, v)
	s.counts = append(s.counts, cnt)
}

// Merge folds other into s.
func (s *SizeHist) Merge(other *SizeHist) {
	if other == nil {
		return
	}
	for i, v := range other.vals {
		s.add(v, other.counts[i])
	}
}

// Count returns total observations.
func (s *SizeHist) Count() int64 { return s.n }

// Points returns (value, fraction) sorted by value.
func (s *SizeHist) Points() []SizePoint {
	out := make([]SizePoint, 0, len(s.vals))
	for i, v := range s.vals {
		out = append(out, SizePoint{Value: v, Fraction: float64(s.counts[i]) / float64(s.n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	return out
}

// SizePoint is one (value, fraction) pair of a SizeHist.
type SizePoint struct {
	Value    int64
	Fraction float64
}

// String renders the size histogram compactly for reports.
func (s *SizeHist) String() string {
	var b strings.Builder
	for i, p := range s.Points() {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%dB:%.2f%%", p.Value, p.Fraction*100)
	}
	return b.String()
}
