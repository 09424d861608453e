package stats

import (
	"math"
	"math/bits"
	"slices"
)

// HistBuckets is the number of buckets in a Histogram: values 0..3 get
// exact buckets, and every power of two above that is split into four
// sub-buckets, enough to cover the full non-negative int64 range
// (exponents 2..62).
const HistBuckets = 4 + 4*61

// Histogram is a streaming log-scale histogram over non-negative int64
// values (latencies in microseconds, batch sizes, byte counts). It uses
// fixed buckets — four sub-buckets per power of two — so memory is
// bounded regardless of sample count and no per-sample record is kept.
// It holds a window of buckets [lo, lo+len): none until the first
// sample, then exactly that sample's bucket, so a histogram of a client
// that never completed an operation costs nothing and one of a client
// that completed one costs one bucket. A sample or merge outside the
// window widens it, to at least twice its length, toward its side.
// All bucket math is integer-only, so recording is deterministic and
// Merge is exactly associative.
//
// The zero value is an empty histogram ready for use. A plain copy shares
// the buckets of its source, so histograms are handed over by pointer, or
// copied with Clone.
type Histogram struct {
	Count   int64
	Sum     int64
	MinSeen int64 // valid only when Count > 0
	MaxSeen int64
	lo      int     // the bucket index of buckets[0]
	buckets []int64 // the counts of buckets lo, lo+1, ...
}

// BucketIndex maps a value to its bucket. Negative values clamp to
// bucket 0.
func BucketIndex(v int64) int {
	if v < 4 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // e >= 2
	sub := int(uint64(v)>>(e-2)) & 3
	return 4*(e-1) + sub
}

// BucketBound reports the inclusive lower bound of bucket i; bucket i
// covers [BucketBound(i), BucketBound(i+1)). An index at or past
// HistBuckets clamps to MaxInt64 so the last bucket has a finite upper
// bound.
func BucketBound(i int) int64 {
	if i < 4 {
		return int64(i)
	}
	if i >= HistBuckets {
		return math.MaxInt64
	}
	e := i/4 + 1
	sub := i % 4
	return int64(4+sub) << (e - 2)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.MinSeen {
		h.MinSeen = v
	}
	if v > h.MaxSeen {
		h.MaxSeen = v
	}
	h.Count++
	h.Sum += v
	i := BucketIndex(v)
	if j := i - h.lo; j < 0 || j >= len(h.buckets) {
		h.cover(i, i+1)
	}
	h.buckets[i-h.lo]++
}

// cover widens the window to hold buckets [lo, hi). An empty histogram
// takes exactly that window; a full one grows to at least twice its
// length, so a stream of samples reallocates a logarithmic number of times.
func (h *Histogram) cover(lo, hi int) {
	n := len(h.buckets)
	if n == 0 {
		h.lo, h.buckets = lo, make([]int64, hi-lo)
		return
	}
	if lo >= h.lo && hi <= h.lo+n {
		return
	}
	nlo, nhi := min(lo, h.lo), max(hi, h.lo+n)
	if extra := 2*n - (nhi - nlo); extra > 0 {
		if lo < h.lo {
			nlo = max(0, nlo-extra)
		} else {
			nhi = min(HistBuckets, nhi+extra)
		}
	}
	b := make([]int64, nhi-nlo)
	copy(b[h.lo-nlo:], h.buckets)
	h.lo, h.buckets = nlo, b
}

// Clone returns a copy of h that shares nothing with it.
func (h *Histogram) Clone() Histogram {
	c := *h
	c.buckets = slices.Clone(h.buckets)
	return c
}

// N reports the number of recorded samples.
func (h *Histogram) N() int64 { return h.Count }

// Mean reports the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Bucket reports the count in bucket i.
func (h *Histogram) Bucket(i int) int64 {
	if j := i - h.lo; j >= 0 && j < len(h.buckets) {
		return h.buckets[j]
	}
	return 0
}

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the covering bucket, clamped to the observed
// min/max so single-bucket distributions report exact values.
func (h *Histogram) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var cum int64
	for j, n := range h.buckets {
		if n == 0 {
			continue
		}
		i := h.lo + j
		if float64(cum+n) >= rank {
			lo := float64(BucketBound(i))
			hi := float64(BucketBound(i + 1))
			frac := (rank - float64(cum)) / float64(n)
			v := lo + (hi-lo)*frac
			if v < float64(h.MinSeen) {
				v = float64(h.MinSeen)
			}
			if v > float64(h.MaxSeen) {
				v = float64(h.MaxSeen)
			}
			return v
		}
		cum += n
	}
	return float64(h.MaxSeen)
}

// Merge adds every bucket of o into h. Merging is element-wise addition,
// so it is commutative and exactly associative: merging per-client
// histograms in any order yields identical quantiles.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.Count == 0 {
		return
	}
	if h.Count == 0 || o.MinSeen < h.MinSeen {
		h.MinSeen = o.MinSeen
	}
	if o.MaxSeen > h.MaxSeen {
		h.MaxSeen = o.MaxSeen
	}
	h.Count += o.Count
	h.Sum += o.Sum
	h.cover(o.lo, o.lo+len(o.buckets))
	for j, n := range o.buckets {
		h.buckets[o.lo-h.lo+j] += n
	}
}
