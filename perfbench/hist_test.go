package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestBucketsAreContiguousAndOrdered(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v++ {
		b := bucketOf(v)
		if b != prev && b != prev+1 {
			t.Fatalf("value %d jumps from bucket %d to %d", v, prev, b)
		}
		prev = b
	}
	if b := bucketOf(math.MaxInt64); b >= histBuckets {
		t.Fatalf("max value lands in bucket %d of %d", b, histBuckets)
	}
}

func TestQuantileRelativeError(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var h hist
	vals := make([]int64, 100000)
	for i := range vals {
		vals[i] = int64(math.Exp(rng.Float64()*16)) + 1 // 1 ns .. ~9 ms
		h.record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(vals[int(math.Ceil(q*float64(len(vals))))-1])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 1.0/64 {
			t.Errorf("q%.3f: got %.0f, exact %.0f (relative error %.4f)", q, got, exact, rel)
		}
	}
}

func TestMergeAddsCounts(t *testing.T) {
	var a, b hist
	for i := int64(1); i <= 100; i++ {
		a.record(i * 1000)
		b.record(i * 1000)
	}
	a.merge(&b)
	if a.n != 200 || a.mean() != 50500 {
		t.Fatalf("merged n=%d mean=%.0f, want 200 and 50500", a.n, a.mean())
	}
	if p, _, ok := a.tailPercentile(); !ok || p != 90 {
		t.Fatalf("tail percentile of 200 samples = %v (ok=%v), want 90", p, ok)
	}
}
