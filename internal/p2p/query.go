// The adaptive query layer: selectivity-aware range planning, streaming
// range iterators and predicate pushdown over the live cluster.
//
// BATON makes range selectivity visible for free. The published topology
// snapshot carries the key-ordered ring — every member's range lower bound
// at publication time — so the number of peers a range touches is two
// binary searches against state every client already holds: no messages,
// no locks, no statistics machinery. This is the same lock-free pre-check
// discipline as the balancer's balanceLikely.
//
// RangeAdaptive plans per request: it estimates the range's peer-span from
// the ring and applies query.Choose's fixed rule — the serial
// adjacent-chain walk below query.SerialSpanLimit peers, the parallel
// scatter from there on — and dispatches the request straight to the
// owner of the range's lower bound, looked up in the same ring. Entering
// at the owner is what makes narrow adaptive ranges cheap: a one-peer
// range costs one request and one reply, with no phase-1 routing. An
// entry slot gone stale under a concurrent membership change costs
// forwarding hops (phase-1 routing re-aims the request), never
// correctness.
//
// RangeIter streams: the scatter branches push bounded batches into a
// channel-backed sink as they land instead of materialising one giant
// slice, so a wide range query allocates O(batch), not O(result), on the
// serving peers. Batches arrive in segment-arrival order — each batch is
// internally key-sorted and batches from one peer arrive in order, but
// segments from different peers interleave as they finish. Close must be
// called when abandoning an iterator early; a consumer that stops
// consuming without Close stalls the peers still trying to deliver to it.
package p2p

import (
	"fmt"
	"sort"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/query"
	"baton/internal/store"
)

// entryIdx returns the ring index of the member owning key under this
// topology (the slot entryOf resolves, as an index), or -1 for an empty
// ring. Keys below the first entry map to slot 0, the
// extreme-member rule of ownsExtreme.
func (t *topology) entryIdx(key keyspace.Key) int {
	n := len(t.ring)
	if n == 0 {
		return -1
	}
	i := sort.Search(n, func(i int) bool { return t.ring[i].lower > key })
	if i > 0 {
		i--
	}
	return i
}

// spanOf estimates how many member peers the range touches: the ring slots
// from the owner of r.Lower up to (excluding) the first slot whose range
// starts at or beyond r.Upper. Exact against the published ring; a
// concurrent membership change can make it stale by the width of one
// structural operation, which is noise at planning granularity.
func (t *topology) spanOf(r keyspace.Range) int {
	n := len(t.ring)
	if n == 0 || r.IsEmpty() {
		return 1
	}
	lo := t.entryIdx(r.Lower)
	hi := sort.Search(n, func(i int) bool { return t.ring[i].lower >= r.Upper })
	if hi <= lo {
		return 1
	}
	return hi - lo
}

// EstimateSpan returns the number of member peers the range is estimated
// to touch under the current published topology. The estimate is the
// planner's input: two binary searches over the ring, no messages, no
// locks.
func (c *Cluster) EstimateSpan(r keyspace.Range) int {
	return c.topo.Load().spanOf(r)
}

// PlanStats returns the query layer's planning counters: adaptive range
// queries dispatched serially and in parallel.
func (c *Cluster) PlanStats() obs.PlanSnapshot { return c.plans.Snapshot() }

// planRange resolves the plan for a range query under topology t and the
// ring slot owning the range's lower bound, where the request enters.
func (c *Cluster) planRange(t *topology, r keyspace.Range, pred *query.Pred) (query.Plan, int) {
	plan := query.Choose(t.spanOf(r), pred.LimitOrZero())
	if plan == query.PlanSerial {
		c.plans.Serial()
	} else {
		c.plans.Parallel()
	}
	return plan, t.entryIdx(r.Lower)
}

// RangeAdaptive answers the range query like Range / RangeSerial, but
// picks the execution per request: the peer-span of the range is estimated
// from the published ring and query.Choose dispatches the serial chain
// walk for narrow ranges and the parallel scatter for wide ones. The
// request enters the overlay at the owner of r.Lower (falling back to via
// when the slot is dead or unknown), so it skips phase-1 routing. Items
// are returned in key order.
func (c *Cluster) RangeAdaptive(via core.PeerID, r keyspace.Range) ([]store.Item, int, error) {
	return c.rangePlanned(via, r, nil)
}

// RangeFiltered is RangeAdaptive with predicate pushdown: pred is
// evaluated at each owning peer, so items that cannot match never cross
// the wire, and a positive pred.Limit caps the result — served by a
// serial walk that terminates the chain as soon as the limit is satisfied.
func (c *Cluster) RangeFiltered(via core.PeerID, r keyspace.Range, pred *query.Pred) ([]store.Item, int, error) {
	pred.Normalize()
	return c.rangePlanned(via, r, pred)
}

func (c *Cluster) rangePlanned(via core.PeerID, r keyspace.Range, pred *query.Pred) ([]store.Item, int, error) {
	if c.stopped.Load() {
		return nil, 0, ErrStopped
	}
	t := c.topo.Load()
	if _, ok := t.peers[via]; !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownPeer, via)
	}
	plan, ownerIdx := c.planRange(t, r, pred)
	req := request{kind: kindRange, key: r.Lower, rng: r, par: plan == query.PlanParallel}
	if pred != nil {
		req.kind = kindRangePred
		req.pred = pred
	}
	resp, err := c.issueToEntry(via, t, ownerIdx, req)
	if err != nil {
		return nil, 0, err
	}
	return resp.items, resp.hops, resp.err
}

// GetFiltered is Get with predicate pushdown: the predicate is evaluated
// at the owning peer, so a non-matching value never crosses the wire.
// Found reports whether the key is present AND matches. Routed like Get
// (owner-direct under RouteDirect).
func (c *Cluster) GetFiltered(via core.PeerID, key keyspace.Key, pred *query.Pred) ([]byte, bool, int, error) {
	pred.Normalize()
	resp, err := c.route(via, request{kind: kindGetPred, key: key, pred: pred})
	if err != nil {
		return nil, false, 0, err
	}
	return resp.value, resp.found, resp.hops, resp.err
}

// issueToEntry issues the request straight to the ring slot idx of
// topology t when that member is alive, falling back to the overlay path
// entered at via otherwise — the same degradation issueDirect applies. A
// misaimed direct send (the slot no longer owns the range's lower
// bound) is re-routed by phase-1 forwarding at the receiver.
func (c *Cluster) issueToEntry(via core.PeerID, t *topology, idx int, req request) (response, error) {
	if idx >= 0 && idx < len(t.ring) {
		e := &t.ring[idx]
		if e.p.alive.Load() {
			req.reply = getReply()
			if c.deliverTo(e.p, req, false) {
				select {
				case resp := <-req.reply:
					putReply(req.reply)
					return resp, nil
				case <-c.done:
					//batonvet:ignore replypool abandoned on Stop by design: the late answer must not reach the pool (see replyPool's doc comment)
					return response{}, ErrStopped
				}
			}
			// The slot died (or a tombstone was retired) between the
			// topology load and the delivery: nothing was sent, so the
			// channel is clean.
			putReply(req.reply)
			req.reply = nil
		}
	}
	return c.issue(via, req)
}

// iterBatchSize bounds how many items one streaming batch carries: big
// enough to amortise the channel send, small enough that the iterator's
// peak memory stays O(batch) per in-flight branch.
const iterBatchSize = 256

// sinkBuffer is the streaming sink's channel capacity, in batches: the
// slack between producing peers and the consuming client before
// backpressure blocks a branch.
const sinkBuffer = 16

// rangeSink is the bounded channel-backed sink of a streaming range query.
// Peer goroutines deliver batches through send, which blocks when the
// client lags (that is the backpressure bound on the query's memory) but
// never indefinitely: a send aborts when the iterator is closed or the
// cluster stops.
type rangeSink struct {
	ch     chan iterBatch
	cancel chan struct{}
	done   <-chan struct{} // cluster shutdown broadcast
}

// iterBatch is one delivery to a streaming iterator: a batch of items, or
// the final summary (hop count and error) when final is set.
type iterBatch struct {
	items []store.Item
	final bool
	hops  int
	err   error
}

// send delivers one non-empty batch. It reports false when the iterator
// was cancelled or the cluster stopped, telling the producing branch to
// stop scanning.
func (s *rangeSink) send(items []store.Item) bool {
	select {
	case s.ch <- iterBatch{items: items}:
		return true
	case <-s.cancel:
		return false
	case <-s.done:
		return false
	}
}

// close delivers the final summary. Called exactly once, by the branch
// that takes the collector's pending count to zero — after every other
// branch's sends completed — so the iterator sees it last.
func (s *rangeSink) close(hops int, err error) {
	select {
	case s.ch <- iterBatch{final: true, hops: hops, err: err}:
	case <-s.cancel:
	case <-s.done:
	}
}

// RangeIter is a streaming range query in progress. Use it like:
//
//	it, err := c.RangeIter(via, r)
//	if err != nil { ... }
//	defer it.Close()
//	for it.Next() {
//		item := it.Item()
//		...
//	}
//	if err := it.Err(); err != nil { ... }
//
// Items arrive in segment-arrival order: each covering peer's contribution
// is internally key-sorted, but contributions from different peers
// interleave as the scatter branches finish — the price of yielding items
// as they land instead of materialising and stitching the whole result.
// A membership change mid-iteration (join, departure, crash, recovery) is
// handled exactly as the materialising scatter handles it: sub-requests
// addressed with stale state are re-routed, regions in mid-handoff are
// briefly buffered, and a segment whose owner is dead surfaces as
// ErrOwnerDown from Err with the rest of the items intact — never lost or
// duplicated items.
//
// A RangeIter is not safe for concurrent use. Close is idempotent and
// must be called when abandoning the iterator before Next returned false;
// leaking an unconsumed, unclosed iterator stalls the peers still trying
// to deliver to it until the cluster stops.
type RangeIter struct {
	sink    *rangeSink
	cur     []store.Item
	idx     int
	limit   int
	yielded int
	hops    int
	err     error
	done    bool
	closed  bool
}

// RangeIter starts a streaming range query: the parallel scatter runs as
// in Range, but branches stream their contributions through a bounded
// sink as they land and the iterator yields them without ever
// materialising the full result.
func (c *Cluster) RangeIter(via core.PeerID, r keyspace.Range) (*RangeIter, error) {
	return c.rangeIter(via, r, nil)
}

// RangeIterFiltered is RangeIter with predicate pushdown: pred is
// evaluated at each producing peer, and a positive pred.Limit stops the
// iterator after that many items (remaining branches are cancelled).
func (c *Cluster) RangeIterFiltered(via core.PeerID, r keyspace.Range, pred *query.Pred) (*RangeIter, error) {
	pred.Normalize()
	return c.rangeIter(via, r, pred)
}

func (c *Cluster) rangeIter(via core.PeerID, r keyspace.Range, pred *query.Pred) (*RangeIter, error) {
	if c.stopped.Load() {
		return nil, ErrStopped
	}
	t := c.topo.Load()
	if _, ok := t.peers[via]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownPeer, via)
	}
	// Streaming is always the parallel scatter — a serial chain cannot
	// yield anything before the walk completes — so only the owner slot is
	// interesting.
	ownerIdx := t.entryIdx(r.Lower)
	c.plans.Parallel()
	sink := &rangeSink{
		ch:     make(chan iterBatch, sinkBuffer),
		cancel: make(chan struct{}),
		done:   c.done,
	}
	// The collector is built client-side so the sink and predicate travel
	// with the request; the coordinating peer seeds no collector of its
	// own (see handleRange). One pending unit covers the coordinator's
	// branch, exactly as handleRange would grow it.
	coll := &collector{pred: pred, sink: sink}
	coll.grow(1)
	req := request{kind: kindRange, key: r.Lower, rng: r, par: true, coll: coll}
	if pred != nil {
		req.kind = kindRangePred
		req.pred = pred
	}
	if !c.sendToEntry(t, ownerIdx, req) && !c.send(via, req) {
		if c.stopped.Load() {
			return nil, ErrStopped
		}
		c.suspect(via)
		return nil, fmt.Errorf("%w: %d", ErrOwnerDown, via)
	}
	return &RangeIter{sink: sink, limit: pred.LimitOrZero()}, nil
}

// sendToEntry delivers the request to the ring slot idx of topology t,
// reporting false when the slot is out of range, dead or unreachable.
func (c *Cluster) sendToEntry(t *topology, idx int, req request) bool {
	if idx < 0 || idx >= len(t.ring) {
		return false
	}
	e := &t.ring[idx]
	if !e.p.alive.Load() {
		return false
	}
	return c.deliverTo(e.p, req, false)
}

// Next advances to the next item, blocking until one is available, and
// reports whether there is one. It returns false when the query is
// exhausted, the pushdown limit is reached, or the cluster stops — then
// Err reports how the query ended.
func (it *RangeIter) Next() bool {
	if it.done || it.closed {
		return false
	}
	if it.limit > 0 && it.yielded >= it.limit {
		// The limit is satisfied: cancel the remaining branches, their
		// work cannot be needed.
		it.done = true
		it.Close()
		return false
	}
	it.idx++
	for it.idx >= len(it.cur) {
		select {
		case b := <-it.sink.ch:
			if b.final {
				it.hops, it.err = b.hops, b.err
				it.done = true
				return false
			}
			it.cur, it.idx = b.items, 0
		case <-it.sink.done:
			it.err = ErrStopped
			it.done = true
			return false
		}
	}
	it.yielded++
	return true
}

// Item returns the current item. Valid only after a Next that returned
// true.
func (it *RangeIter) Item() store.Item { return it.cur[it.idx] }

// Err returns how the query ended: nil for a complete answer, ErrOwnerDown
// when a segment's owner was dead (the yielded items are the partial
// answer), ErrStopped when the cluster shut down mid-iteration. Valid
// after Next returned false.
func (it *RangeIter) Err() error { return it.err }

// Hops returns the longest message chain across the scatter's branches,
// like Range's hop count. Valid after Next returned false with a complete
// answer.
func (it *RangeIter) Hops() int { return it.hops }

// Close cancels the iterator: producing branches stop scanning and
// delivering. Idempotent. Must be called when the iterator is abandoned
// before exhaustion; calling it after Next returned false is harmless.
func (it *RangeIter) Close() {
	if !it.closed {
		it.closed = true
		close(it.sink.cancel)
	}
}
