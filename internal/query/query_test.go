package query

import (
	"testing"

	"baton/internal/keyspace"
)

// TestChoose pins the fixed planning rule: spans below SerialSpanLimit
// walk the chain, wider spans scatter, and a pushdown limit forces the
// walk at any span.
func TestChoose(t *testing.T) {
	cases := []struct {
		span, limit int
		want        Plan
	}{
		{0, 0, PlanSerial},
		{1, 0, PlanSerial},
		{3, 0, PlanSerial},
		{4, 0, PlanParallel},
		{64, 0, PlanParallel},
		{64, 10, PlanSerial},
	}
	for _, c := range cases {
		if got := Choose(c.span, c.limit); got != c.want {
			t.Errorf("Choose(span %d, limit %d) = %v, want %v", c.span, c.limit, got, c.want)
		}
	}
}

// TestPredMatch pins the predicate contract: zero value matches all,
// fields AND together, key membership uses the sorted set.
func TestPredMatch(t *testing.T) {
	var nilPred *Pred
	if !nilPred.Match(1, nil) {
		t.Error("nil predicate must match everything")
	}
	if !(&Pred{}).Match(7, []byte("x")) {
		t.Error("zero predicate must match everything")
	}
	p := &Pred{MinValueLen: 2, MaxValueLen: 4}
	for _, c := range []struct {
		v  string
		ok bool
	}{{"", false}, {"a", false}, {"ab", true}, {"abcd", true}, {"abcde", false}} {
		if got := p.Match(1, []byte(c.v)); got != c.ok {
			t.Errorf("len pred on %q = %v, want %v", c.v, got, c.ok)
		}
	}
	ks := &Pred{Keys: []keyspace.Key{30, 10, 20}} // unsorted on purpose
	ks.Normalize()
	for _, c := range []struct {
		k  keyspace.Key
		ok bool
	}{{10, true}, {20, true}, {30, true}, {15, false}, {40, false}} {
		if got := ks.Match(c.k, nil); got != c.ok {
			t.Errorf("key-set pred on %d = %v, want %v", c.k, got, c.ok)
		}
	}
}
