package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// sameHist reports whether a and b agree in count, sum, min, max and every
// bucket.
func sameHist(a, b *Histogram) bool {
	if a.Count != b.Count || a.Sum != b.Sum || a.MinSeen != b.MinSeen || a.MaxSeen != b.MaxSeen {
		return false
	}
	for i := 0; i < HistBuckets; i++ {
		if a.Bucket(i) != b.Bucket(i) {
			return false
		}
	}
	return true
}

// Every value must land in a bucket whose bounds bracket it, and bucket
// lower bounds must be strictly increasing.
func TestHistogramBucketBoundaries(t *testing.T) {
	for i := 1; i < HistBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("bucket bounds not increasing at %d: %d then %d",
				i, BucketBound(i-1), BucketBound(i))
		}
	}
	vals := []int64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 1000,
		8191, 8192, 1 << 20, (1 << 40) + 12345, 1<<62 + 1}
	for _, v := range vals {
		i := BucketIndex(v)
		if i < 0 || i >= HistBuckets {
			t.Fatalf("BucketIndex(%d) = %d out of range", v, i)
		}
		lo := BucketBound(i)
		if v < lo {
			t.Fatalf("value %d below its bucket %d lower bound %d", v, i, lo)
		}
		if i+1 < HistBuckets {
			if hi := BucketBound(i + 1); v >= hi {
				t.Fatalf("value %d at/above bucket %d upper bound %d", v, i, hi)
			}
		}
	}
	// Exact buckets for tiny values.
	for v := int64(0); v < 4; v++ {
		if got := BucketIndex(v); got != int(v) {
			t.Fatalf("BucketIndex(%d) = %d, want exact bucket", v, got)
		}
	}
	if BucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}

	// One sample holds exactly its own bucket, and a sample inside the
	// window allocates nothing.
	var h Histogram
	h.Record(1 << 40)
	if len(h.buckets) != 1 || h.Bucket(BucketIndex(1<<40)) != 1 {
		t.Fatalf("after one high sample: %d buckets, want 1", len(h.buckets))
	}
	if allocs := testing.AllocsPerRun(100, func() { h.Record(1<<40 + 5) }); allocs != 0 || len(h.buckets) != 1 {
		t.Fatalf("a sample inside the window: %v allocations, %d buckets, want 0 and 1", allocs, len(h.buckets))
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile must be 0")
	}
	// An empty histogram holds no buckets, and reading, merging or
	// cloning one allocates nothing.
	if allocs := testing.AllocsPerRun(100, func() {
		var e Histogram
		e.Merge(&h)
		c := e.Clone()
		_ = c.Quantile(0.99) + c.Mean() + float64(c.Bucket(HistBuckets-1))
	}); allocs != 0 || h.buckets != nil {
		t.Fatalf("empty histogram: %v allocations, %d buckets", allocs, len(h.buckets))
	}
	// All mass in one exact bucket: every quantile is that value.
	for i := 0; i < 10; i++ {
		h.Record(3)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 3 {
			t.Fatalf("single-value histogram Quantile(%g) = %g, want 3", q, got)
		}
	}
	// Uniform 0..3 over exact buckets: median interpolates between 1 and 2.
	var u Histogram
	for v := int64(0); v < 4; v++ {
		u.Record(v)
	}
	if p50 := u.Quantile(0.5); p50 < 1 || p50 > 2 {
		t.Fatalf("uniform{0,1,2,3} p50 = %g, want within [1,2]", p50)
	}
	if p0 := u.Quantile(0); p0 != 0 {
		t.Fatalf("p0 = %g, want 0", p0)
	}
	if p100 := u.Quantile(1); p100 != 3 {
		t.Fatalf("p100 = %g, want 3", p100)
	}
	// Quantiles are monotone in q and clamped to [min, max].
	var r Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		r.Record(rng.Int63n(1_000_000))
	}
	prev := -1.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99, 0.999} {
		v := r.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: Quantile(%g) = %g < %g", q, v, prev)
		}
		if v < float64(r.MinSeen) || v > float64(r.MaxSeen) {
			t.Fatalf("Quantile(%g) = %g outside [%d, %d]", q, v, r.MinSeen, r.MaxSeen)
		}
		prev = v
	}
	// With 4 sub-buckets per octave, an interpolated quantile can be off
	// from the exact order statistic by at most one bucket width, i.e. a
	// relative error under 25%.
	exact := make([]int64, 0, 5000)
	rng = rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		exact = append(exact, rng.Int63n(1_000_000))
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got := r.Quantile(q)
		want := float64(exact[int(q*float64(len(exact)))-1])
		if got < want*0.75 || got > want*1.25 {
			t.Fatalf("Quantile(%g) = %g, exact %g: outside 25%% bucket bound", q, got, want)
		}
	}
}

func TestHistogramMergeAssociativity(t *testing.T) {
	mk := func(seed int64, n int) *Histogram {
		h := &Histogram{}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			h.Record(rng.Int63n(1 << 30))
		}
		return h
	}
	a, b, c := mk(1, 1000), mk(2, 500), mk(3, 2000)

	// (a+b)+c
	left := &Histogram{}
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)
	// a+(b+c)
	bc := &Histogram{}
	bc.Merge(b)
	bc.Merge(c)
	right := &Histogram{}
	right.Merge(a)
	right.Merge(bc)

	if !sameHist(left, right) {
		t.Fatalf("merge is not associative: (a+b)+c != a+(b+c)")
	}
	if left.Count != 3500 {
		t.Fatalf("merged count = %d, want 3500", left.Count)
	}
	// Merging an empty or nil histogram is a no-op.
	before := left.Clone()
	left.Merge(&Histogram{})
	left.Merge(nil)
	if !sameHist(left, &before) {
		t.Fatalf("merging empty/nil changed the histogram")
	}

	// A lower window merged into a higher one, and a higher into a lower
	// one, each equal recording every sample into one histogram.
	lowVals, highVals := []int64{0, 3, 9}, []int64{1 << 20, 1 << 40, 1<<40 + 1}
	for _, intoHigh := range []bool{true, false} {
		var low, high, both Histogram
		for _, v := range lowVals {
			low.Record(v)
			both.Record(v)
		}
		for _, v := range highVals {
			high.Record(v)
			both.Record(v)
		}
		dst, src := &low, &high
		if intoHigh {
			dst, src = &high, &low
		}
		dst.Merge(src)
		if !sameHist(dst, &both) {
			t.Fatalf("merging into the higher window %v: not equal to recording every sample", intoHigh)
		}
	}
}

// prefixHist is the bucket layout Histogram had before it kept a window:
// buckets 0 up to the highest recorded. Its Quantile is the reference
// the window's must equal exactly.
type prefixHist struct {
	count, min, max int64
	buckets         []int64
}

func (h *prefixHist) record(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	h.max = max(h.max, v)
	h.count++
	i := BucketIndex(v)
	for len(h.buckets) <= i {
		h.buckets = append(h.buckets, 0)
	}
	h.buckets[i]++
}

func (h *prefixHist) quantile(q float64) float64 {
	rank := q * float64(h.count)
	var cum int64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo, hi := float64(BucketBound(i)), float64(BucketBound(i+1))
			v := lo + (hi-lo)*(rank-float64(cum))/float64(n)
			return min(max(v, float64(h.min)), float64(h.max))
		}
		cum += n
	}
	return float64(h.max)
}

// Over seeded samples spread across many octaves, recorded one by one and
// merged from parts, every quantile of the window equals the prefix
// layout's, at every stage of growth.
func TestHistogramWindowMatchesPrefixLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h, merged, part Histogram
	var ref prefixHist
	for i := 1; i <= 4000; i++ {
		v := rng.Int63n(1 << uint(rng.Intn(45)))
		h.Record(v)
		ref.record(v)
		part.Record(v)
		if i%97 == 0 {
			merged.Merge(&part)
			part = Histogram{}
		}
		if i%250 != 0 {
			continue
		}
		for q := 0.0; q <= 1; q += 0.01 {
			if got, want := h.Quantile(q), ref.quantile(q); got != want {
				t.Fatalf("after %d samples: Quantile(%g) = %g, prefix layout %g", i, q, got, want)
			}
		}
	}
	merged.Merge(&part)
	if !sameHist(&merged, &h) {
		t.Fatal("merging the parts differs from recording every sample")
	}
	for q := 0.0; q <= 1; q += 0.001 {
		if got, want := merged.Quantile(q), ref.quantile(q); got != want {
			t.Fatalf("merged: Quantile(%g) = %g, prefix layout %g", q, got, want)
		}
	}
}

// Identical seeds must produce bit-identical histograms and quantiles —
// the property the scenario layer's trace determinism rests on.
func TestHistogramDeterminism(t *testing.T) {
	run := func() (Histogram, []float64) {
		var h Histogram
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 20000; i++ {
			h.Record(rng.Int63n(10_000_000))
		}
		qs := make([]float64, 0, 4)
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			qs = append(qs, h.Quantile(q))
		}
		return h, qs
	}
	h1, q1 := run()
	h2, q2 := run()
	if !sameHist(&h1, &h2) {
		t.Fatalf("histograms differ across identical seeds")
	}
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatalf("quantile %d differs across identical seeds: %g vs %g", i, q1[i], q2[i])
		}
	}

	// A Clone is equal to its source and independent of it both ways.
	c := h1.Clone()
	if !sameHist(&c, &h1) {
		t.Fatalf("a clone differs from its source")
	}
	for _, v := range []int64{1000, 1 << 50} {
		h1.Record(v)
		c.Record(3 * v)
		if c.Bucket(BucketIndex(v)) != h2.Bucket(BucketIndex(v)) || h1.Bucket(BucketIndex(3*v)) != h2.Bucket(BucketIndex(3*v)) {
			t.Fatalf("a clone shares buckets with its source: recording %d and %d", v, 3*v)
		}
	}
}
