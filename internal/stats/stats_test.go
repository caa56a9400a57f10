package stats

import (
	"math"
	"strings"
	"sync"
	"testing"

	"baton/internal/obs"
)

func TestMetricsCounting(t *testing.T) {
	m := NewMetrics()
	m.CountMessage(MsgJoinRequest)
	m.CountMessage(MsgJoinRequest)
	m.CountMessage(MsgUpdateRouting)
	if m.TotalMessages() != 3 {
		t.Fatalf("TotalMessages = %d, want 3", m.TotalMessages())
	}
	by := m.MessagesByType()
	if by[MsgJoinRequest] != 2 || by[MsgUpdateRouting] != 1 {
		t.Fatalf("per-type counts wrong: %v", by)
	}
	// Mutating the copy must not affect the metrics.
	by[MsgJoinRequest] = 99
	if m.MessagesByType()[MsgJoinRequest] != 2 {
		t.Fatal("MessagesByType returned a live reference")
	}
}

func TestMetricsZeroValue(t *testing.T) {
	var m Metrics
	m.CountMessage(MsgInsert)
	m.RecordOp(OpCost{Kind: OpInsert, Messages: 4})
	if m.TotalMessages() != 1 || m.OpCount(OpInsert) != 1 {
		t.Fatal("zero-value Metrics should be usable")
	}
}

func TestMetricsOps(t *testing.T) {
	m := NewMetrics()
	m.RecordOp(OpCost{Kind: OpSearchExact, Messages: 5})
	m.RecordOp(OpCost{Kind: OpSearchExact, Messages: 7})
	m.RecordOp(OpCost{Kind: OpJoin, Messages: 10})
	if m.OpCount(OpSearchExact) != 2 {
		t.Fatalf("OpCount = %d", m.OpCount(OpSearchExact))
	}
	if got := m.AvgMessagesPerOp(OpSearchExact); got != 6 {
		t.Fatalf("AvgMessagesPerOp = %f, want 6", got)
	}
	if got := m.AvgMessagesPerOp(OpLeave); got != 0 {
		t.Fatalf("AvgMessagesPerOp for missing kind = %f, want 0", got)
	}
	m.Reset()
	if m.TotalMessages() != 0 || m.OpCount(OpJoin) != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestMetricsString(t *testing.T) {
	m := NewMetrics()
	m.CountMessage(MsgLeaveRequest)
	s := m.String()
	if !strings.Contains(s, "LEAVE") || !strings.Contains(s, "total messages: 1") {
		t.Fatalf("String output missing fields: %q", s)
	}
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.StdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(v)
	}
	if a.Count() != 8 {
		t.Fatalf("Count = %d", a.Count())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %f", a.Mean())
	}
	if math.Abs(a.StdDev()-2) > 1e-9 {
		t.Fatalf("StdDev = %f, want 2", a.StdDev())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %f/%f", a.Min(), a.Max())
	}
	if a.Sum() != 40 {
		t.Fatalf("Sum = %f", a.Sum())
	}
	a.AddInt(3)
	if a.Count() != 9 {
		t.Fatalf("AddInt did not record")
	}
}

func TestLevelLoad(t *testing.T) {
	l := NewLevelLoad()
	l.Record(OpInsert, 0)
	l.Record(OpInsert, 3)
	l.Record(OpInsert, 3)
	l.Record(OpSearchExact, 5)
	if l.Load(OpInsert, 3) != 2 {
		t.Fatalf("Load = %d", l.Load(OpInsert, 3))
	}
	if l.Load(OpSearchExact, 3) != 0 {
		t.Fatalf("missing load should be zero")
	}
	levels := l.Levels()
	if len(levels) != 3 || levels[0] != 0 || levels[1] != 3 || levels[2] != 5 {
		t.Fatalf("Levels = %v", levels)
	}
	l.Reset()
	if len(l.Levels()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSeriesAndTable(t *testing.T) {
	a := Series{Label: "baton"}
	a.Add(1000, 5.5)
	a.Add(2000, 6)
	b := Series{Label: "chord"}
	b.Add(1000, 7)
	out := Table("N", []Series{a, b})
	if !strings.Contains(out, "baton") || !strings.Contains(out, "chord") {
		t.Fatalf("table missing headers: %q", out)
	}
	if !strings.Contains(out, "5.500") {
		t.Fatalf("table missing float value: %q", out)
	}
	if !strings.Contains(out, "2000") {
		t.Fatalf("table missing x value: %q", out)
	}
	// The missing chord point at x=2000 renders as "-".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "-") {
		t.Fatalf("missing point should render as '-': %q", last)
	}
}

func TestOpCostFields(t *testing.T) {
	c := OpCost{Kind: OpLoadBalance, Messages: 12, LocateMessages: 3, UpdateMessages: 6, DataMessages: 2, ExtraMessages: 1, NodesInvolved: 4}
	if c.LocateMessages+c.UpdateMessages+c.DataMessages+c.ExtraMessages > c.Messages {
		t.Fatal("component messages should not exceed total in this test fixture")
	}
}

// The hop-count and latency histograms this package used to own are now
// obs.Histogram. The three tests below keep their old names and cases and
// check them against it, the way the evaluation's callers read it:
// percentiles on a 0-100 scale under the nearest-rank rule, means from the
// exact sum. Every sample is below 128, so every answer is exact.

func TestHistogram(t *testing.T) {
	var h obs.Histogram
	if s := h.Snapshot(); s.Mean() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 0; i < 50; i++ {
		h.Observe(1)
	}
	for i := 0; i < 30; i++ {
		h.Observe(2)
	}
	for i := 0; i < 20; i++ {
		h.Observe(5)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	// Half the samples are 1: p50 is the last rank that reads 1.
	if got := s.Percentile(50); got != 1 {
		t.Fatalf("P50 = %d, want 1", got)
	}
	if got := s.Percentile(51); got != 2 {
		t.Fatalf("P51 = %d, want 2", got)
	}
	if got := s.Mean(); math.Abs(got-2.1) > 1e-9 {
		t.Fatalf("Mean = %f, want 2.1", got)
	}
	if got := s.Percentile(80); got != 2 {
		t.Fatalf("P80 = %d, want 2", got)
	}
	if got := s.Percentile(99); got != 5 {
		t.Fatalf("P99 = %d, want 5", got)
	}
	if got := s.Percentile(200); got != 5 {
		t.Fatalf("clamped percentile = %d, want 5", got)
	}
}

// TestHistogramSortedCacheInvalidation: percentiles stay right as samples
// arrive between queries, including samples below and above everything
// seen so far, and a snapshot already taken does not move.
func TestHistogramSortedCacheInvalidation(t *testing.T) {
	var h obs.Histogram
	h.Observe(10)
	h.Observe(20)
	if got := h.Snapshot().Percentile(100); got != 20 {
		t.Fatalf("P100 = %d, want 20", got)
	}
	for i := 0; i < 8; i++ {
		h.Observe(10)
	}
	before := h.Snapshot()
	if got := before.Percentile(90); got != 10 {
		t.Fatalf("P90 after same-value observes = %d, want 10", got)
	}
	h.Observe(5)
	if got := h.Snapshot().Percentile(1); got != 5 {
		t.Fatalf("P1 after new low value = %d, want 5", got)
	}
	if got := before.Percentile(1); got != 10 {
		t.Fatalf("P1 of the earlier snapshot = %d, want 10 (the snapshot moved)", got)
	}
	h.Observe(30)
	if got := h.Snapshot().Percentile(100); got != 30 {
		t.Fatalf("P100 after new high value = %d, want 30", got)
	}
}

func TestLatency(t *testing.T) {
	var h obs.Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean() != 0 || s.Percentile(100) != 0 || s.Percentile(50) != 0 {
		t.Fatal("zero-value histogram should report zeros")
	}
	// Concurrent observes from many goroutines (run with -race).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 125; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if got := s.Mean(); got != 63 {
		t.Fatalf("mean = %f, want 63", got)
	}
	if p50 := s.Percentile(50); p50 != 63 {
		t.Fatalf("p50 = %d, want 63", p50)
	}
	if p100 := s.Percentile(100); p100 != 125 {
		t.Fatalf("p100 = %d, want 125", p100)
	}
	if p0 := s.Percentile(0); p0 != 1 {
		t.Fatalf("p0 = %d, want 1", p0)
	}
	if s.Percentile(95) > s.Percentile(99) {
		t.Fatal("p95 above p99")
	}
}
