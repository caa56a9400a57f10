package obs

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	// Hop-count-sized samples must come back exact, not bucketed.
	for _, v := range []int64{1, 2, 2, 3, 3, 3, 7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("p50 = %d, want 3", got)
	}
	if got := s.Percentile(100); got != 7 {
		t.Fatalf("p100 = %d, want 7", got)
	}
	if s.Count != 7 || s.Sum != 21 {
		t.Fatalf("count/sum = %d/%d, want 7/21", s.Count, s.Sum)
	}
}

func TestHistogramLargeValuesBucketed(t *testing.T) {
	var h Histogram
	h.Observe(1_000_000) // ~1ms in ns
	s := h.Snapshot()
	p := s.Percentile(99)
	// Sub-bucket [2^19+14·2^15, 2^19+15·2^15) has midpoint 999424.
	if p < 1_000_000-1_000_000/32 || p > 1_000_000+1_000_000/32 {
		t.Fatalf("p99 = %d, want within 1/32 of 1e6", p)
	}
	if h.Snapshot().Percentile(50) != p {
		t.Fatalf("single-sample percentiles differ")
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	s := h.Snapshot()
	if got := s.Percentile(50); got != 0 {
		t.Fatalf("p50 = %d, want 0", got)
	}
}

func TestHistogramSubAndMerge(t *testing.T) {
	var h Histogram
	h.Observe(4)
	before := h.Snapshot()
	h.Observe(4)
	h.Observe(10)
	delta := h.Snapshot().Sub(before)
	if delta.Count != 2 {
		t.Fatalf("delta count = %d, want 2", delta.Count)
	}
	if got := delta.Percentile(100); got != 10 {
		t.Fatalf("delta p100 = %d, want 10", got)
	}
	merged := delta.Merge(before)
	if merged.Count != 3 {
		t.Fatalf("merged count = %d, want 3", merged.Count)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i % 100)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

// repeatSamples returns each value v counts[v] times, in no set order.
func repeatSamples(counts map[int64]int) []int64 {
	var out []int64
	for v, n := range counts {
		for i := 0; i < n; i++ {
			out = append(out, v)
		}
	}
	return out
}

// rampSamples returns lo..hi, n times over.
func rampSamples(lo, hi int64, n int) []int64 {
	var out []int64
	for i := 0; i < n; i++ {
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
	}
	return out
}

func observeAll(samples []int64) HistogramSnapshot {
	var h Histogram
	for _, v := range samples {
		h.Observe(v)
	}
	return h.Snapshot()
}

// TestHistogramPercentiles pins the nearest-rank rule: Percentile(p) is
// the smallest recorded value at or below which at least p percent of the
// samples fall. Values below 128 are exact, so the answers are too.
func TestHistogramPercentiles(t *testing.T) {
	skewed := repeatSamples(map[int64]int{1: 50, 2: 30, 5: 20})
	mostlyTens := append(repeatSamples(map[int64]int{10: 9}), 20)
	ramps := rampSamples(1, 125, 8)
	for _, tc := range []struct {
		name    string
		samples []int64
		p       float64
		want    int64
	}{
		{"empty", nil, 50, 0},
		{"1..7 p20", rampSamples(1, 7, 1), 20, 2}, // rank ceil(1.4) = 2, not round(1.4) = 1
		{"1..7 p50", rampSamples(1, 7, 1), 50, 4},
		{"skewed p50", skewed, 50, 1},
		{"skewed p80", skewed, 80, 2},
		{"skewed p99", skewed, 99, 5},
		{"skewed p above 100 clamps", skewed, 200, 5},
		{"two values p100", []int64{10, 20}, 100, 20},
		{"mostly tens p90", mostlyTens, 90, 10},
		{"new low value p1", slices.Concat(mostlyTens, []int64{5}), 1, 5},
		{"new high value p100", slices.Concat(mostlyTens, []int64{5, 30}), 100, 30},
		{"ramps p0", ramps, 0, 1},
		{"ramps p50", ramps, 50, 63},
		{"ramps p100", ramps, 100, 125},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := observeAll(tc.samples).Percentile(tc.p); got != tc.want {
				t.Fatalf("p%v = %d, want %d", tc.p, got, tc.want)
			}
		})
	}
}

// TestHistogramMean: the mean comes from the exact sum, not from bucket
// values, so it is exact at any magnitude.
func TestHistogramMean(t *testing.T) {
	for _, tc := range []struct {
		samples []int64
		want    float64
	}{
		{nil, 0},
		{repeatSamples(map[int64]int{1: 50, 2: 30, 5: 20}), 2.1},
		{rampSamples(1, 125, 8), 63},
		{[]int64{1, 1, 2, 5, 1_000_003}, 200_002.4},
	} {
		if got := observeAll(tc.samples).Mean(); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("mean of %d samples = %v, want %v", len(tc.samples), got, tc.want)
		}
	}
}

// histProbes returns every value below 256, both sides of every power of
// two up to 2^41, and geometric steps of about 1.5% in between.
func histProbes() []int64 {
	var vs []int64
	for v := int64(0); v < 256; v++ {
		vs = append(vs, v)
	}
	for v := int64(256); v < 1<<41; v += v/64 + 1 {
		vs = append(vs, v)
	}
	for k := 8; k <= 41; k++ {
		vs = append(vs, 1<<k-1, 1<<k)
	}
	slices.Sort(vs)
	return vs
}

func TestHistogramBucketsMonotonic(t *testing.T) {
	prev := 0
	for _, v := range histProbes() {
		b := histBucket(v)
		if b < prev || b >= histBucketCount {
			t.Fatalf("bucket(%d) = %d after %d (of %d buckets)", v, b, prev, histBucketCount)
		}
		prev = b
	}
	if b := histBucket(math.MaxInt64); b != histTop {
		t.Fatalf("bucket(MaxInt64) = %d, want the top bucket %d", b, histTop)
	}
	if histBucketCount != 657 {
		t.Fatalf("%d buckets, want 657 (128 exact + 33 powers of two × 16 + top)", histBucketCount)
	}
}

// TestHistogramRelativeError: above the exact range a bucket's reported
// value is within 1/32 of every value the bucket holds, and it lies in
// the bucket it stands for.
func TestHistogramRelativeError(t *testing.T) {
	for _, v := range histProbes() {
		if v < histExact || v >= 1<<histTopBits {
			continue
		}
		b := histBucket(v)
		got := histValue(b)
		if d := got - v; d > v/32 || -d > v/32 {
			t.Fatalf("value(bucket(%d)) = %d, off by more than 1/32", v, got)
		}
		if histBucket(got) != b {
			t.Fatalf("value(bucket %d) = %d lies in bucket %d", b, got, histBucket(got))
		}
	}
}

// TestHistogramResolvesTenPercent: 1.0 ms and 1.1 ms land in different
// buckets, so a 10% latency change moves the reported percentile.
func TestHistogramResolvesTenPercent(t *testing.T) {
	var a, b Histogram
	a.Observe(1_000_000)
	b.Observe(1_100_000)
	pa, pb := a.Snapshot().Percentile(50), b.Snapshot().Percentile(50)
	if pa == pb {
		t.Fatalf("1.0 ms and 1.1 ms both read %d ns", pa)
	}
}

func TestSamplerRate(t *testing.T) {
	var s Sampler
	for i := 0; i < 100; i++ {
		if s.Sample() {
			t.Fatal("sampler fired while disabled")
		}
	}
	s.SetEvery(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 over 400 = %d hits, want 100", hits)
	}
	if s.Every() != 4 {
		t.Fatalf("Every = %d, want 4", s.Every())
	}
}

func TestTraceAppendAndBackfill(t *testing.T) {
	tr := NewTrace()
	i := tr.Append(Hop{Peer: 1, Kind: "GET", Level: 2, QueueWaitNs: 10})
	tr.Append(Hop{Peer: 2, Kind: "GET", Level: 3})
	tr.SetHandleNs(i, 42)
	hops := tr.Hops()
	if len(hops) != 2 || hops[0].HandleNs != 42 || hops[1].Peer != 2 {
		t.Fatalf("unexpected hops: %+v", hops)
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	r := NewTraceRing(2)
	for peer := int64(1); peer <= 3; peer++ {
		tr := NewTrace()
		tr.Append(Hop{Peer: peer})
		r.Add(tr)
	}
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("retained %d traces, want 2", len(snaps))
	}
	if snaps[0][0].Peer != 2 || snaps[1][0].Peer != 3 {
		t.Fatalf("wrong traces retained: %+v", snaps)
	}
}

func TestJournalRingAndSeq(t *testing.T) {
	j := NewJournal(2)
	for i := 0; i < 3; i++ {
		ev := Event{Op: "join", Start: time.Now(), Outcome: "ok"}
		ev.AddPhase("prepare", time.Millisecond)
		j.Record(ev)
	}
	evs := j.Events()
	if len(evs) != 2 {
		t.Fatalf("retained %d events, want 2", len(evs))
	}
	if evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("seqs = %d,%d, want 2,3", evs[0].Seq, evs[1].Seq)
	}
	if len(evs[1].Phases) != 1 || evs[1].Phases[0].Name != "prepare" {
		t.Fatalf("phases not retained: %+v", evs[1].Phases)
	}
}

func TestPeerMetricsSnapshotAndAbsorb(t *testing.T) {
	name := func(i int) string { return map[int]string{0: "GET", 1: "PUT"}[i] }
	m := NewPeerMetrics(2)
	m.Delivered(0)
	m.Delivered(0)
	m.Delivered(1)
	m.Spilled(1)
	m.Refused(0)
	m.StaleRoute()
	m.SetSpillDepth(5)
	m.SetSpillDepth(2)
	m.ObserveQueueWait(100)
	m.ObserveHandle(200)
	m.ObserveSpillDrain(300)

	s := m.Snapshot(7, name)
	if s.Peer != 7 || s.Delivered["GET"] != 2 || s.Delivered["PUT"] != 1 {
		t.Fatalf("delivered wrong: %+v", s)
	}
	if s.Spilled["PUT"] != 1 || s.Refused["GET"] != 1 || s.StaleRoutes != 1 {
		t.Fatalf("spilled/refused/stale wrong: %+v", s)
	}
	if s.SpillDepth != 2 || s.SpillHighWater != 5 {
		t.Fatalf("spill gauges wrong: %+v", s)
	}
	if s.QueueWait.Count != 1 || s.HandleTime.Count != 1 || s.SpillDrain.Count != 1 {
		t.Fatalf("histograms wrong: %+v", s)
	}

	agg := NewPeerMetrics(2)
	agg.Absorb(m)
	agg.Absorb(m)
	as := agg.Snapshot(-1, name)
	if as.Delivered["GET"] != 4 || as.StaleRoutes != 2 || as.QueueWait.Count != 2 {
		t.Fatalf("absorb wrong: %+v", as)
	}

	cm := BuildClusterMetrics([]PeerSnapshot{s}, as)
	if cm.Delivered["GET"] != 6 || cm.StaleRoutes != 3 {
		t.Fatalf("cluster totals wrong: %+v", cm)
	}
	if cm.QueueWait.Count != 3 {
		t.Fatalf("cluster queue-wait count = %d, want 3", cm.QueueWait.Count)
	}
}
