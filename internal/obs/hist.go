package obs

import (
	"math/bits"
	"sync/atomic"
)

// Bucket layout of the streaming histogram: values below histExact are
// counted exactly (one bucket per value — hop counts and other small
// integers lose no precision), larger values share one bucket per power
// of two. The layout is fixed at compile time, which is what makes the
// histogram lock-free: observing is one atomic add into a pre-ordered
// bucket, and a percentile query is a sweep in bucket order with no sort
// and no lock (compare internal/stats.Histogram, whose exact map buckets
// need a cached sort and single-goroutine discipline).
const (
	histExact = 128
	// Buckets histExact..histLast hold [1<<(b-histExact+7), 1<<(b-histExact+8));
	// the last bucket catches everything up to 1<<63-1.
	histBucketCount = histExact + 57
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
	b := histExact + bits.Len64(uint64(v)) - 8
	if b >= histBucketCount {
		b = histBucketCount - 1
	}
	return b
}

// histValue returns the representative value of a bucket: the value
// itself for exact buckets, the midpoint for power-of-two buckets.
func histValue(b int) int64 {
	if b < histExact {
		return int64(b)
	}
	lo := int64(1) << (b - histExact + 7)
	return lo + lo/2
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

// Percentile returns the value at or below which p percent of the
// samples fall (p in [0,100]): exact for values below 128, the bucket
// midpoint above. Zero when the snapshot is empty.
func (s HistogramSnapshot) Percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(float64(s.Count)*p/100 + 0.5)
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
