package main

import (
	"math"
	"math/bits"
)

// hist is the benchmark's own latency recorder: a log-linear histogram of
// nanosecond values. Values below 64 get an exact bucket; above that every
// power of two is split into 32 linear sub-buckets, so a reported value
// (the bucket midpoint) is within 1/64 (≈1.6%) of every value it stands
// for. A hist belongs to one client goroutine and is never shared while it
// records; clients' hists are merged at report time.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
}

const (
	subBits     = 6
	subCount    = 1 << subBits
	histBuckets = (64 - subBits) * subCount
)

func bucketOf(v int64) int {
	if v < 2*subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return shift*subCount + int(uint64(v)>>shift)
}

// bucketBounds returns a bucket's lower bound and width.
func bucketBounds(b int) (lower, width float64) {
	if b < 2*subCount {
		return float64(b), 1
	}
	shift := b/subCount - 1
	return float64(uint64(b-shift*subCount) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += uint64(max(ns, 0))
}

func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the value at quantile q in [0,1] (nearest rank), or 0
// for an empty histogram. Inside the rank's bucket the value is placed
// linearly by the rank's position among the bucket's samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	rank = min(max(rank, 1), h.n)
	var seen uint64
	for b, c := range h.counts {
		if seen+uint64(c) >= rank {
			lower, width := bucketBounds(b)
			if width == 1 {
				return lower
			}
			return lower + width*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += uint64(c)
	}
	lower, _ := bucketBounds(histBuckets - 1)
	return lower
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// tailPercentile is the highest of the standard reporting percentiles that
// still has at least ten samples beyond it, with its value; ok is false
// when even p50 lacks ten samples above it.
func (h *hist) tailPercentile() (pct, value float64, ok bool) {
	for _, p := range []float64{99.999, 99.99, 99.9, 99, 90, 50} {
		if float64(h.n)*(1-p/100) >= 10 {
			return p, h.quantile(p / 100), true
		}
	}
	return 0, 0, false
}
