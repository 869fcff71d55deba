package main

import (
	"math"
	"slices"
)

// minBeyond is the number of samples that must lie beyond a percentile in
// every slice before the percentile is trusted (choosing-metrics §1).
const minBeyond = 10

// noisyIQR is the slice IQR/median above which a timing metric is flagged
// noisy instead of being reported as clean.
const noisyIQR = 0.15

// rank returns the nearest-rank index of the p-th percentile among n sorted
// samples and how many samples lie beyond it.
func rank(n int, p float64) (idx, beyond int) {
	idx = int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx, n - 1 - idx
}

// percentile sorts samples in place and returns their nearest-rank p-th
// percentile; ok reports whether at least minBeyond samples lie beyond it.
func percentile(samples []int32, p float64) (v float64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	slices.Sort(samples)
	idx, beyond := rank(len(samples), p)
	return float64(samples[idx]), beyond >= minBeyond
}

// quartiles returns what Python's statistics.quantiles(vs, n=4) returns (the
// exclusive method), so spreads computed here match the driver's.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// dist summarizes one timing metric over the slices of a window. The value
// reported is the better quartile across slices — Q1 of a latency, Q3 of a
// rate: on a shared host interference only ever slows a slice down, and it
// comes in stretches that can cover half a window, so the quartile on the
// undisturbed side repeats where the median flips between two modes.
type dist struct {
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Slices  int     `json:"slices"`
	Samples int     `json:"samples"`
	// PerSlice holds the slice values in time order.
	PerSlice []float64 `json:"per_slice,omitempty"`
	// Noisy marks a slice IQR/median above noisyIQR. Pooled marks a
	// percentile taken over the whole window because some slice had fewer
	// than minBeyond samples beyond it.
	Noisy  bool `json:"noisy,omitempty"`
	Pooled bool `json:"pooled,omitempty"`
}

// summarize reduces per-slice values to their median and quartiles.
func summarize(perSlice []float64, samples int) dist {
	q1, q2, q3 := quartiles(perSlice)
	d := dist{Median: q2, Q1: q1, Q3: q3, Slices: len(perSlice), Samples: samples, PerSlice: perSlice}
	if q2 != 0 && (q3-q1)/math.Abs(q2) > noisyIQR {
		d.Noisy = true
	}
	return d
}

// slicePercentile computes the p-th percentile of each slice (sorting the
// slices in place) and summarizes them. When any slice has fewer than
// minBeyond samples beyond the percentile, the percentile of the pooled
// window is reported instead and marked Pooled.
func slicePercentile(perSlice [][]int32, p float64) dist {
	vals := make([]float64, 0, len(perSlice))
	total, trusted := 0, true
	for _, s := range perSlice {
		total += len(s)
		v, ok := percentile(s, p)
		trusted = trusted && ok
		vals = append(vals, v)
	}
	if trusted {
		return summarize(vals, total)
	}
	pooled := make([]int32, 0, total)
	for _, s := range perSlice {
		pooled = append(pooled, s...)
	}
	v, _ := percentile(pooled, p)
	return dist{Median: v, Q1: v, Q3: v, Slices: len(perSlice), Samples: total, Pooled: true}
}
