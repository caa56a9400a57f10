package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Bucket layout of the streaming histogram, log-linear in the HDR style:
// values below histExact get one bucket each, so hop counts and other
// small integers are exact. From histExact up, every power of two
// [2^k, 2^(k+1)) is split into histSub linear sub-buckets of width
// 2^(k-4); a bucket's midpoint is then within 1/32 of every value it
// holds. Values from 2^histTopBits (≈18 min in nanoseconds) up share one
// top bucket. The layout is fixed at compile time, which is what makes
// the histogram lock-free: observing is one atomic add into a pre-ordered
// bucket, and a percentile query is a sweep in bucket order with no sort
// and no lock.
const (
	histExactBits = 7  // values below 2^7 get exact buckets
	histSubBits   = 4  // each power of two above splits into 2^4 sub-buckets
	histTopBits   = 40 // values from 2^40 up share the top bucket

	histExact       = 1 << histExactBits
	histSub         = 1 << histSubBits
	histTop         = histExact + (histTopBits-histExactBits)*histSub
	histBucketCount = histTop + 1
)

// Histogram is a lock-free streaming histogram of non-negative int64
// samples (nanoseconds, hop counts, queue depths). All methods are safe
// for concurrent use; the zero value is ready.
type Histogram struct {
	counts [histBucketCount]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64
}

// histBucket maps a sample to its bucket index.
func histBucket(v int64) int {
	if v < histExact {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1
	if k >= histTopBits {
		return histTop
	}
	sub := int(uint64(v)>>(k-histSubBits)) & (histSub - 1)
	return histExact + (k-histExactBits)*histSub + sub
}

// histValue returns the representative value of a bucket: the value
// itself for exact buckets, the midpoint for sub-buckets, and the lower
// bound 2^histTopBits for the top bucket.
func histValue(b int) int64 {
	if b < histExact {
		return int64(b)
	}
	if b >= histTop {
		return 1 << histTopBits
	}
	k := histExactBits + (b-histExact)/histSub
	width := int64(1) << (k - histSubBits)
	lo := int64(1)<<k + int64((b-histExact)%histSub)*width
	return lo + width/2
}

// Observe records one sample. Negative samples count as zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// Snapshot reads the histogram without locking. Concurrent observers may
// land between bucket reads, so a snapshot is monotonic rather than a
// perfect point-in-time cut — the usual metrics contract.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.n.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			if s.Counts == nil {
				s.Counts = make(map[int]int64, 8)
			}
			s.Counts[i] = c
		}
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram's buckets,
// indexed by bucket number (sparse: empty buckets are absent).
type HistogramSnapshot struct {
	Counts map[int]int64 `json:"counts,omitempty"`
	Count  int64         `json:"count"`
	Sum    int64         `json:"sum"`
}

// Sub returns the per-bucket difference s - prev, clamped at zero. It is
// how a caller turns two cumulative snapshots into the distribution of
// just the interval between them.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{}
	for b, c := range s.Counts {
		d := c - prev.Counts[b]
		if d <= 0 {
			continue
		}
		if out.Counts == nil {
			out.Counts = make(map[int]int64, len(s.Counts))
		}
		out.Counts[b] = d
		out.Count += d
	}
	if d := s.Sum - prev.Sum; d > 0 {
		out.Sum = d
	}
	return out
}

// Merge returns the per-bucket sum of the two snapshots.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum}
	if len(s.Counts)+len(o.Counts) > 0 {
		out.Counts = make(map[int]int64, len(s.Counts)+len(o.Counts))
		for b, c := range s.Counts {
			out.Counts[b] += c
		}
		for b, c := range o.Counts {
			out.Counts[b] += c
		}
	}
	return out
}

// Percentile returns the smallest bucket value at or below which at
// least p percent of the samples fall (p in [0,100]; the nearest-rank
// rule, rank = ceil(p/100 * Count)): exact for values below 128, the
// bucket midpoint above. Zero when the snapshot is empty.
func (s HistogramSnapshot) Percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(float64(s.Count) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for b := 0; b < histBucketCount; b++ {
		c, ok := s.Counts[b]
		if !ok {
			continue
		}
		seen += c
		if seen >= rank {
			return histValue(b)
		}
	}
	return 0
}

// Mean returns the average sample, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
