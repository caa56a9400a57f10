// Package query is the thin planning layer in front of the cluster's range
// path. BATON's ring makes selectivity visible for free: the published
// epoch-tagged topology snapshot names every member's lower bound in key
// order, so the number of peers a range touches — its peer-span — is two
// binary searches against state the client already holds. No statistics
// machinery, no messages, no locks; the same discipline as the balancer's
// balanceLikely pre-check.
//
// The package holds the two pieces the planner needs and nothing else:
//
//   - Choose picks serial vs parallel execution per request from the
//     estimated peer-span with one fixed rule: spans below
//     SerialSpanLimit walk the adjacent chain, wider ones scatter.
//   - Pred is the serialisable predicate of the pushdown path: plain data
//     (no function values), evaluated at the owning peer so non-matching
//     items never cross the wire, with a limit that terminates serial
//     walks early.
//
// The package is deliberately free of p2p types: it plans over integers
// (spans, limits) that the cluster extracts from its published topology,
// which keeps it testable without a live cluster.
package query

import (
	"sort"

	"baton/internal/keyspace"
	"baton/internal/store"
)

// Plan is a planned execution strategy for one range query.
type Plan int8

const (
	// PlanSerial walks the right-adjacent chain one peer at a time
	// (Section IV-B): minimal fan-out, minimal tail latency on narrow
	// ranges, linear latency in the peer-span.
	PlanSerial Plan = iota
	// PlanParallel scatters the range across the covering peers and
	// gathers the partial answers: logarithmic message depth, wins on
	// wide ranges, loses on narrow ones where the scatter overhead
	// dominates.
	PlanParallel
)

// String names the plan for reports and flags.
func (p Plan) String() string {
	if p == PlanParallel {
		return "parallel"
	}
	return "serial"
}

// SerialSpanLimit is the crossover of the fixed planning rule: a range
// touching fewer member peers than this runs the serial chain walk, a
// wider one the parallel scatter. The bench matrix's plan sweep (64
// peers, 2-core Xeon) measures why: at a span of ≈1 peer the walk
// out-serves the scatter (≈101k vs ≈87k ranges/sec), because a one-peer
// range gains nothing from a collector and a fan-out tail; at ≈16 peers
// the scatter serves 2.3× the walk (≈11.9k vs ≈5.2k), because the walk
// ships its growing accumulator through every remaining hop. The
// loopback-TCP range rows (span ≈4) already favour the scatter (≈10.9k
// vs ≈8.4k), so four is where the walk stops paying.
const SerialSpanLimit = 4

// Choose picks the plan for a range with the given estimated peer-span
// and pushdown limit: a positive limit always runs serially — the walk
// stops the moment the limit is reached, while a scatter would fan work
// out to peers whose items are then thrown away — and otherwise spans
// below SerialSpanLimit run serially and wider ones in parallel.
func Choose(span, limit int) Plan {
	if limit > 0 || span < SerialSpanLimit {
		return PlanSerial
	}
	return PlanParallel
}

// Pred is a pushdown predicate: plain serialisable data (no function
// values) a client attaches to a get or range request, evaluated at the
// owning peer so items that cannot match never cross the wire.
//
// The zero value matches everything. All fields combine with AND:
//
//   - MinValueLen / MaxValueLen bound the stored value's length in bytes
//     (MaxValueLen 0 means unbounded).
//   - Keys, when non-empty, restricts matches to the listed keys. The
//     slice is sorted on first use; callers must not mutate it after
//     attaching the predicate to a request.
//   - Limit, when positive, caps how many matching items a range query
//     returns. A serial walk stops forwarding down the adjacent chain the
//     moment the limit is reached, and a scatter branch never ships more
//     than Limit items.
type Pred struct {
	MinValueLen int
	MaxValueLen int
	Keys        []keyspace.Key
	Limit       int
}

// Normalize prepares the predicate for evaluation (sorts the key set).
// The cluster calls it once when the predicate is attached to a request;
// it is idempotent.
func (p *Pred) Normalize() {
	if p == nil || len(p.Keys) == 0 {
		return
	}
	if !sort.SliceIsSorted(p.Keys, func(i, j int) bool { return p.Keys[i] < p.Keys[j] }) {
		sort.Slice(p.Keys, func(i, j int) bool { return p.Keys[i] < p.Keys[j] })
	}
}

// Match reports whether the item with the given key and stored value
// satisfies the predicate. A nil predicate matches everything.
func (p *Pred) Match(key keyspace.Key, value []byte) bool {
	if p == nil {
		return true
	}
	if len(value) < p.MinValueLen {
		return false
	}
	if p.MaxValueLen > 0 && len(value) > p.MaxValueLen {
		return false
	}
	if len(p.Keys) > 0 {
		i := sort.Search(len(p.Keys), func(i int) bool { return p.Keys[i] >= key })
		if i == len(p.Keys) || p.Keys[i] != key {
			return false
		}
	}
	return true
}

// MatchItem is Match for a store item.
func (p *Pred) MatchItem(it store.Item) bool { return p.Match(it.Key, it.Value) }

// LimitOrZero returns the predicate's item limit, or 0 (unlimited) for a
// nil predicate — the nil-safe read the serving paths use.
func (p *Pred) LimitOrZero() int {
	if p == nil {
		return 0
	}
	return p.Limit
}
