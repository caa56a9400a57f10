package core

import (
	"fmt"
	"maps"

	"baton/internal/keyspace"
	"baton/internal/stats"
	"baton/internal/store"
)

// LoadBalanceConfig configures the load balancing scheme of Section IV-D.
type LoadBalanceConfig struct {
	// OverloadThreshold is the number of stored items above which a peer is
	// considered overloaded. Zero disables automatic load balancing.
	OverloadThreshold int
	// UnderloadFraction defines "lightly loaded": a peer qualifies as a
	// rejoin candidate when it stores fewer than
	// UnderloadFraction*OverloadThreshold items. Values <= 0 default to 0.25.
	UnderloadFraction float64
	// AdjacentFraction bounds when balancing with an adjacent peer is good
	// enough: the adjacent peer must hold fewer than
	// AdjacentFraction*OverloadThreshold items. Values <= 0 default to 0.75.
	AdjacentFraction float64
}

// Enabled reports whether automatic load balancing is switched on.
func (c LoadBalanceConfig) Enabled() bool { return c.OverloadThreshold > 0 }

func (c LoadBalanceConfig) underloadLimit() int {
	f := c.UnderloadFraction
	if f <= 0 {
		f = 0.25
	}
	return int(f * float64(c.OverloadThreshold))
}

func (c LoadBalanceConfig) adjacentLimit() int {
	f := c.AdjacentFraction
	if f <= 0 {
		f = 0.75
	}
	return int(f * float64(c.OverloadThreshold))
}

// LoadBalanceStats summarises the load-balancing activity of the network
// since creation (the quantities of Figures 8(g) and 8(h)).
type LoadBalanceStats struct {
	// Events is the number of load-balancing operations performed.
	Events int64
	// Messages is the total number of messages those operations exchanged.
	Messages int64
	// ShiftSizes counts the operations by the number of peers each involved
	// (peers that changed position or exchanged data): ShiftSizes[n] is how
	// many operations involved exactly n peers.
	ShiftSizes map[int]int64
}

// LoadBalanceStats returns the accumulated load balancing measurements.
func (nw *Network) LoadBalanceStats() LoadBalanceStats {
	return LoadBalanceStats{
		Events:     nw.lbEvents,
		Messages:   nw.lbMessages,
		ShiftSizes: maps.Clone(nw.lbShiftSizes),
	}
}

// TriggerLoadBalance runs the load-balancing procedure for the given peer if
// it is overloaded, regardless of whether automatic balancing is enabled.
// It reports whether an operation was performed and its cost.
func (nw *Network) TriggerLoadBalance(id PeerID) (bool, stats.OpCost, error) {
	n, err := nw.node(id)
	if err != nil {
		return false, stats.OpCost{}, err
	}
	if !nw.cfg.LoadBalance.Enabled() || n.data.Len() <= nw.cfg.LoadBalance.OverloadThreshold {
		return false, stats.OpCost{}, nil
	}
	cost := nw.loadBalance(n)
	return true, cost, nil
}

// maybeLoadBalance is called after an insert lands on owner; it triggers the
// load balancing procedure when the owner has become overloaded.
func (nw *Network) maybeLoadBalance(owner *Node) {
	if owner.data.Len() <= nw.cfg.LoadBalance.OverloadThreshold {
		return
	}
	nw.loadBalance(owner)
}

// loadBalance rebalances the load of the overloaded peer x following
// Section IV-D: a non-leaf peer only balances with its adjacent peers; a
// leaf peer first tries its adjacent peers and otherwise recruits a lightly
// loaded leaf found through its routing tables, which vacates its position
// (handing its range to its own adjacent peer) and re-joins as a child of x,
// restructuring the tree if the forced join or leave unbalances it.
func (nw *Network) loadBalance(x *Node) stats.OpCost {
	nw.beginOp(stats.OpLoadBalance)
	nodesInvolved := 0

	if !x.IsLeaf() {
		nodesInvolved = nw.balanceWithBestAdjacent(x)
	} else {
		// A leaf first tries its adjacent peers.
		if adj, side := nw.lighterAdjacent(x); adj != nil && adj.data.Len() <= nw.cfg.LoadBalance.adjacentLimit() {
			nodesInvolved = nw.balanceWithAdjacent(x, adj, side)
		} else if light := nw.findLightLeaf(x); light != nil {
			nodesInvolved = nw.rejoinUnderOverloaded(x, light)
		} else {
			// No lightly loaded peer found: fall back to adjacent balancing
			// even if the adjacent peers are moderately loaded.
			nodesInvolved = nw.balanceWithBestAdjacent(x)
		}
	}

	cost := nw.endOp()
	cost.NodesInvolved = nodesInvolved
	nw.lbEvents++
	nw.lbMessages += int64(cost.Messages)
	if nodesInvolved > 0 {
		nw.lbShiftSizes[nodesInvolved]++
	}
	return cost
}

// lighterAdjacent returns the adjacent peer of x with the smaller load and
// which side it is on. Probing each adjacent peer costs a message and a
// reply.
func (nw *Network) lighterAdjacent(x *Node) (*Node, Side) {
	var best *Node
	var bestSide Side
	for _, side := range []Side{Left, Right} {
		a := x.Adjacent(side)
		if a == nil || !a.alive {
			continue
		}
		nw.send(a, stats.MsgLoadProbe, catOther)
		nw.send(x, stats.MsgReply, catOther)
		if best == nil || a.data.Len() < best.data.Len() {
			best = a
			bestSide = side
		}
	}
	return best, bestSide
}

// balanceWithBestAdjacent balances x with its lighter adjacent peer and
// returns the number of peers involved.
func (nw *Network) balanceWithBestAdjacent(x *Node) int {
	adj, side := nw.lighterAdjacent(x)
	if adj == nil || adj.data.Len() >= x.data.Len() {
		return 0
	}
	return nw.balanceWithAdjacent(x, adj, side)
}

// balanceWithAdjacent moves items from the overloaded peer x to its adjacent
// peer a (on the given side of x) by shifting the range boundary between
// them until their loads are as equal as the key distribution allows.
func (nw *Network) balanceWithAdjacent(x, a *Node, side Side) int {
	combined := x.data.Len() + a.data.Len()
	keep := (combined + 1) / 2
	if keep >= x.data.Len() {
		return 0 // nothing to gain
	}
	var boundary keyspace.Key
	if side == Right {
		// x keeps its lowest `keep` items; everything at or above the
		// boundary key moves to the right adjacent peer.
		k, ok := x.data.KeyAtFraction(float64(keep) / float64(x.data.Len()))
		if !ok || k <= x.nodeRange.Lower {
			return 0
		}
		boundary = k
		items := x.data.ExtractRange(keyspace.NewRange(boundary, x.nodeRange.Upper))
		a.data.Absorb(items)
		a.nodeRange.Lower = boundary
		x.nodeRange.Upper = boundary
	} else {
		// x keeps its highest `keep` items; everything below the boundary
		// moves to the left adjacent peer.
		giveAway := x.data.Len() - keep
		k, ok := x.data.KeyAtFraction(float64(giveAway) / float64(x.data.Len()))
		if !ok || k >= x.nodeRange.Upper || k <= x.nodeRange.Lower {
			return 0
		}
		boundary = k
		items := x.data.ExtractRange(keyspace.NewRange(x.nodeRange.Lower, boundary))
		a.data.Absorb(items)
		a.nodeRange.Upper = boundary
		x.nodeRange.Lower = boundary
	}
	nw.send(a, stats.MsgTransferData, catData)
	// Both peers must notify the peers holding links to them of their new
	// ranges.
	nw.notifyRangeChange(x)
	nw.notifyRangeChange(a)
	return 2
}

// ShiftBoundary moves the boundary between the peer with the given ID and
// its adjacent peer on the given side to the key at: the sub-range of x on
// that side of the boundary, together with the items stored in it, is handed
// to the adjacent peer. It is the primitive behind the adjacent-peer data
// shuffle of Section V as executed by the live cluster, which measures the
// peers' loads and picks the boundary itself and uses the network only as
// the structural authority. The boundary must lie strictly inside x's range
// so x never ends up empty.
func (nw *Network) ShiftBoundary(id PeerID, side Side, at keyspace.Key) (stats.OpCost, error) {
	x, err := nw.node(id)
	if err != nil {
		return stats.OpCost{}, err
	}
	a := x.Adjacent(side)
	if a == nil {
		return stats.OpCost{}, fmt.Errorf("baton: peer %d has no %s adjacent peer", id, side)
	}
	if at <= x.nodeRange.Lower || at >= x.nodeRange.Upper {
		return stats.OpCost{}, fmt.Errorf("baton: boundary %d outside peer %d's range %v", at, id, x.nodeRange)
	}
	nw.beginOp(stats.OpLoadBalance)
	var moved []store.Item
	if side == Left {
		moved = x.data.ExtractRange(keyspace.Range{Lower: x.nodeRange.Lower, Upper: at})
		a.nodeRange.Upper = at
		x.nodeRange.Lower = at
	} else {
		moved = x.data.ExtractRange(keyspace.Range{Lower: at, Upper: x.nodeRange.Upper})
		a.nodeRange.Lower = at
		x.nodeRange.Upper = at
	}
	a.data.Absorb(moved)
	nw.send(a, stats.MsgTransferData, catData)
	nw.notifyRangeChange(x)
	nw.notifyRangeChange(a)
	nw.lbEvents++
	nw.lbShiftSizes[2]++
	cost := nw.endOp()
	nw.lbMessages += int64(cost.Messages)
	return cost, nil
}

// ForcedRejoin moves the lightly loaded peer light out of its current
// position and re-inserts it as a child of the (overloaded) peer hot, with
// the boundary between hot and light placed at the given key. It is the
// second load-balancing scheme of Section V — vacate, restructure
// (Section III-E) and forced re-join — exposed as a primitive for the live
// cluster in package p2p, which measures the loads, picks light, hot and the
// boundary itself, and uses the network only as the structural authority:
//
//  1. light's range (and, when the network carries data, its items) is
//     absorbed by its adjacent heir — the right adjacent peer, or the left
//     one for the rightmost peer — keeping the range tiling gap-free.
//  2. light vacates its tree position; occupants shift along the in-order
//     chain (forcedRemoveAt) if the removal would unbalance the tree.
//  3. light re-joins as a child of hot: it takes the part of hot's range on
//     the free child side of the boundary, and occupants shift again
//     (forcedInsertAt) if the forced join lands on an occupied slot.
//
// The boundary must lie strictly inside hot's range so neither side ends up
// empty. Validation happens before any mutation, so a failed ForcedRejoin
// leaves the network untouched and the caller can retry with different
// peers. light may not be the root, must have an adjacent heir, and that
// heir may not be hot itself (adjacent peers balance with ShiftBoundary —
// the cheap shuffle — not a forced rejoin).
func (nw *Network) ForcedRejoin(lightID, hotID PeerID, boundary keyspace.Key) (stats.OpCost, error) {
	light, err := nw.node(lightID)
	if err != nil {
		return stats.OpCost{}, err
	}
	hot, err := nw.node(hotID)
	if err != nil {
		return stats.OpCost{}, err
	}
	if lightID == hotID {
		return stats.OpCost{}, fmt.Errorf("baton: peer %d cannot rejoin under itself", lightID)
	}
	if light.pos.IsRoot() {
		return stats.OpCost{}, fmt.Errorf("baton: the root peer %d cannot be recruited for a forced rejoin", lightID)
	}
	heir := light.rightAdj
	if heir == nil {
		heir = light.leftAdj
	}
	if heir == nil {
		return stats.OpCost{}, fmt.Errorf("baton: peer %d has no adjacent peer to absorb its range", lightID)
	}
	if heir == hot {
		return stats.OpCost{}, fmt.Errorf("baton: peers %d and %d are adjacent; balance with ShiftBoundary instead", lightID, hotID)
	}
	if boundary <= hot.nodeRange.Lower || boundary >= hot.nodeRange.Upper {
		return stats.OpCost{}, fmt.Errorf("baton: boundary %d outside peer %d's range %v", boundary, hotID, hot.nodeRange)
	}

	nw.beginOp(stats.OpLoadBalance)
	nw.send(light, stats.MsgLoadBalance, catOther)
	nodesInvolved := nw.vacateAndRejoin(light, hot, heir, func(side Side) (keyspace.Range, keyspace.Range) {
		// The free child side decides which part of hot's range light takes,
		// preserving the in-order ordering of ranges.
		if side == Left {
			return keyspace.NewRange(hot.nodeRange.Lower, boundary), keyspace.NewRange(boundary, hot.nodeRange.Upper)
		}
		return keyspace.NewRange(boundary, hot.nodeRange.Upper), keyspace.NewRange(hot.nodeRange.Lower, boundary)
	})
	cost := nw.endOp()
	cost.NodesInvolved = nodesInvolved
	nw.lbEvents++
	nw.lbMessages += int64(cost.Messages)
	nw.lbShiftSizes[cost.NodesInvolved]++
	return cost, nil
}

// vacateAndRejoin is the shared body of the forced depart-and-rejoin
// (rejoinUnderOverloaded and ForcedRejoin): the heir absorbs light's range
// and items, light vacates its position — occupants shift into the gap if
// the removal would unbalance the tree — and re-joins as a child of hot on
// hot's free child side, taking the light-side range that split returns for
// that side (with both slots occupied the forced insert restructures
// again). It returns the number of peers that changed position or
// exchanged data.
func (nw *Network) vacateAndRejoin(light, hot, heir *Node, split func(side Side) (lightRange, hotRange keyspace.Range)) int {
	// 1. The heir absorbs light's range and items.
	merged, err := heir.nodeRange.Union(light.nodeRange)
	if err != nil {
		// The heir is adjacent to light, so the union is always contiguous;
		// failure indicates corruption.
		panic("core: adjacent ranges not contiguous during forced rejoin")
	}
	heir.nodeRange = merged
	heir.data.Absorb(light.data.ExtractAll())
	nw.send(heir, stats.MsgTransferData, catData)
	nw.notifyRangeChange(heir)

	// 2. light vacates its position.
	vacated := light.pos
	delete(nw.positions, vacated)
	movedOut := nw.forcedRemoveAt(vacated)

	// 3. light re-joins as a child of hot with the caller's range split.
	side, _ := hot.freeChildSide()
	light.nodeRange, hot.nodeRange = split(side)
	light.data.Absorb(hot.data.ExtractRange(light.nodeRange))
	nw.send(light, stats.MsgTransferData, catData)

	movedIn := nw.forcedInsertAt(hot, light, side)
	nw.notifyRangeChange(hot)
	nw.notifyRangeChange(light)

	// Peers involved: light, the heir, hot, and every peer displaced by the
	// two restructurings.
	return 3 + movedOut + (movedIn - 1)
}

// notifyRangeChange counts the messages needed to refresh the cached range
// held by every peer that links to n (parent, children, adjacent peers and
// routing-table neighbours).
func (nw *Network) notifyRangeChange(n *Node) {
	targets := []*Node{n.parent, n.leftAdj, n.rightAdj}
	targets = append(targets, n.children...)
	for _, side := range []Side{Left, Right} {
		targets = append(targets, n.RoutingTable(side)...)
	}
	for _, t := range targets {
		if t != nil {
			nw.send(t, stats.MsgUpdateRange, catUpdate)
		}
	}
}

// findLightLeaf probes the routing-table neighbours of x (and their
// children) for a lightly loaded leaf that can be recruited. It returns nil
// when none qualifies.
func (nw *Network) findLightLeaf(x *Node) *Node {
	limit := nw.cfg.LoadBalance.underloadLimit()
	var best *Node
	consider := func(c *Node) {
		if c == nil || c == x || !c.alive || !c.IsLeaf() || c.pos.IsRoot() {
			return
		}
		nw.send(c, stats.MsgLoadProbe, catOther)
		nw.send(x, stats.MsgReply, catOther)
		if c.data.Len() >= limit {
			return
		}
		if best == nil || c.data.Len() < best.data.Len() {
			best = c
		}
	}
	for _, side := range []Side{Left, Right} {
		for _, m := range x.RoutingTable(side) {
			if m == nil {
				continue
			}
			consider(m)
			for _, c := range m.children {
				consider(c)
			}
		}
	}
	return best
}

// rejoinUnderOverloaded implements the second load-balancing scheme: the
// lightly loaded leaf hands its range and items to its adjacent peer,
// vacates its position (restructuring if the departure unbalances the tree)
// and re-joins as a child of the overloaded peer, taking over half of its
// range and items (again restructuring if needed). It returns the number of
// peers that changed position or exchanged data.
func (nw *Network) rejoinUnderOverloaded(x, light *Node) int {
	nw.send(light, stats.MsgLoadBalance, catOther)

	// The light peer passes its range and items to an adjacent peer
	// (preferring the right adjacent, as in the paper's example).
	heir := light.rightAdj
	if heir == nil || !heir.alive {
		heir = light.leftAdj
	}
	if heir == nil {
		return 0 // cannot vacate: no peer can absorb the range
	}
	return nw.vacateAndRejoin(light, x, heir, func(side Side) (keyspace.Range, keyspace.Range) {
		lower, upper, err := x.nodeRange.SplitHalf()
		if err != nil {
			// Overloaded peer's range is a single key: give the light peer
			// an empty slice at the boundary.
			if side == Left {
				return keyspace.NewRange(x.nodeRange.Lower, x.nodeRange.Lower), x.nodeRange
			}
			return keyspace.NewRange(x.nodeRange.Upper, x.nodeRange.Upper), x.nodeRange
		}
		if side == Left {
			return lower, upper
		}
		return upper, lower
	})
}
