package core

import (
	"math/rand"
	"testing"

	"baton/internal/keyspace"
	"baton/internal/workload"
)

func TestLoadBalanceConfigDefaults(t *testing.T) {
	var c LoadBalanceConfig
	if c.Enabled() {
		t.Fatal("zero config should be disabled")
	}
	c = LoadBalanceConfig{OverloadThreshold: 100}
	if !c.Enabled() {
		t.Fatal("threshold > 0 should enable")
	}
	if c.underloadLimit() != 25 {
		t.Fatalf("default underload limit = %d, want 25", c.underloadLimit())
	}
	if c.adjacentLimit() != 75 {
		t.Fatalf("default adjacent limit = %d, want 75", c.adjacentLimit())
	}
	c.UnderloadFraction = 0.5
	c.AdjacentFraction = 0.9
	if c.underloadLimit() != 50 || c.adjacentLimit() != 90 {
		t.Fatalf("configured limits = %d, %d", c.underloadLimit(), c.adjacentLimit())
	}
}

// TestLoadBalanceSkewedInserts drives heavily skewed inserts into a network
// with automatic load balancing and verifies that (a) every structural
// invariant still holds, (b) no data is lost, and (c) the load of the
// hottest peer stays bounded, unlike in the unbalanced case.
func TestLoadBalanceSkewedInserts(t *testing.T) {
	const peers = 60
	const inserts = 3000
	threshold := 80

	build := func(lb LoadBalanceConfig) *Network {
		nw := NewNetwork(Config{Seed: 1, LoadBalance: lb})
		rng := rand.New(rand.NewSource(1))
		for nw.Size() < peers {
			ids := nw.PeerIDs()
			if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		return nw
	}

	gen := workload.NewGenerator(workload.Config{Distribution: workload.Zipf, ZipfTheta: 1.0, Seed: 5})
	keys := gen.Keys(inserts)

	// Without load balancing the hottest peer absorbs a huge share.
	plain := build(LoadBalanceConfig{})
	for _, k := range keys {
		if _, err := plain.Insert(plain.RandomPeer(), k, nil); err != nil {
			t.Fatal(err)
		}
	}
	plainMax := 0
	for _, p := range plain.Peers() {
		if p.DataCount > plainMax {
			plainMax = p.DataCount
		}
	}

	// With load balancing the hottest peer stays near the threshold.
	balanced := build(LoadBalanceConfig{OverloadThreshold: threshold})
	for _, k := range keys {
		if _, err := balanced.Insert(balanced.RandomPeer(), k, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := balanced.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := balanced.TotalItems(); got != plain.TotalItems() {
		t.Fatalf("load balancing lost data: %d items vs %d", got, plain.TotalItems())
	}
	lbStats := balanced.LoadBalanceStats()
	if lbStats.Events == 0 {
		t.Fatal("skewed inserts should have triggered load balancing")
	}
	if lbStats.Messages == 0 {
		t.Fatal("load balancing should have cost messages")
	}
	balancedMax := 0
	for _, p := range balanced.Peers() {
		if p.DataCount > balancedMax {
			balancedMax = p.DataCount
		}
	}
	if balancedMax >= plainMax {
		t.Fatalf("load balancing did not reduce the hottest peer: %d vs %d", balancedMax, plainMax)
	}
	// The hottest peer should be within a small multiple of the threshold.
	if balancedMax > 4*threshold {
		t.Fatalf("hottest peer holds %d items, threshold %d", balancedMax, threshold)
	}

	// All inserted keys must still be findable.
	missing := 0
	for _, k := range keys[:500] {
		_, found, _, err := balanced.SearchExact(balanced.RandomPeer(), k)
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d keys unreachable after load balancing", missing)
	}
}

func TestLoadBalanceShiftHistogram(t *testing.T) {
	nw := NewNetwork(Config{Seed: 3, LoadBalance: LoadBalanceConfig{OverloadThreshold: 40}})
	rng := rand.New(rand.NewSource(3))
	for nw.Size() < 40 {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	gen := workload.NewGenerator(workload.Config{Distribution: workload.Zipf, ZipfTheta: 1.0, Seed: 7})
	for i := 0; i < 2500; i++ {
		if _, err := nw.Insert(nw.RandomPeer(), gen.NextKey(), nil); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			if err := nw.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i, err)
			}
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := nw.LoadBalanceStats()
	var total int64
	for _, c := range st.ShiftSizes {
		total += c
	}
	if st.Events == 0 || total == 0 {
		t.Fatal("expected load balancing activity")
	}
	// The distribution of shift sizes must be dominated by small shifts
	// (the paper finds it "strongly exponential").
	small := st.ShiftSizes[1] + st.ShiftSizes[2] + st.ShiftSizes[3] + st.ShiftSizes[4]
	if float64(small) < 0.5*float64(total) {
		t.Fatalf("small shifts are not the majority: %d of %d", small, total)
	}
}

// buildPlainNetwork grows an unbalanced-load network of the given size with
// no automatic load balancing, so tests can skew it deliberately.
func buildPlainNetwork(t *testing.T, peers int, seed int64) *Network {
	t.Helper()
	nw := NewNetwork(Config{Seed: seed})
	rng := rand.New(rand.NewSource(seed))
	for nw.Size() < peers {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// forcedRejoinPair picks an overloaded target and a light leaf that is not
// adjacent to it (and not the root), the configuration ForcedRejoin accepts.
func forcedRejoinPair(t *testing.T, nw *Network) (light, hot *Node) {
	t.Helper()
	for _, n := range nw.inOrderNodes() {
		if !n.IsLeaf() || n.pos.IsRoot() {
			continue
		}
		heir := n.rightAdj
		if heir == nil {
			heir = n.leftAdj
		}
		for _, h := range nw.inOrderNodes() {
			if h == n || h == heir || h == n.leftAdj || h == n.rightAdj || h.nodeRange.Size() < 4 {
				continue
			}
			return n, h
		}
	}
	t.Fatal("no viable (light, hot) pair in the network")
	return nil, nil
}

// TestForcedRejoin: the light peer's range merges into its heir, the light
// peer re-appears as a neighbour of the hot peer holding the hot peer's
// items on its side of the boundary, every invariant still holds and no
// item is lost.
func TestForcedRejoin(t *testing.T) {
	nw := buildPlainNetwork(t, 40, 11)
	light, hot := forcedRejoinPair(t, nw)

	// Load the hot peer with items spread over its range, and give the light
	// peer a couple of its own so the heir handoff is visible.
	hotRange := hot.nodeRange
	var keys []keyspace.Key
	for i := int64(0); i < 100; i++ {
		k := hotRange.Lower + keyspace.Key(i*(hotRange.Size()/100))
		if !hotRange.Contains(k) {
			continue
		}
		keys = append(keys, k)
		hot.data.Put(k, nil)
	}
	lightKey := light.nodeRange.Lower
	light.data.Put(lightKey, nil)
	total := nw.TotalItems()

	boundary, ok := hot.data.KeyAtFraction(0.5)
	if !ok || boundary <= hotRange.Lower || boundary >= hotRange.Upper {
		t.Fatalf("no interior median for hot range %v", hotRange)
	}
	cost, err := nw.ForcedRejoin(light.id, hot.id, boundary)
	if err != nil {
		t.Fatalf("forced rejoin: %v", err)
	}
	if cost.NodesInvolved < 3 {
		t.Fatalf("forced rejoin involved %d peers, want >= 3 (light, heir, hot)", cost.NodesInvolved)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("invariants after forced rejoin: %v", err)
	}
	if got := nw.TotalItems(); got != total {
		t.Fatalf("forced rejoin lost data: %d items, want %d", got, total)
	}
	// The pair now shares the hot peer's old range, split at the boundary.
	union, err := hot.nodeRange.Union(light.nodeRange)
	if err != nil || union != hotRange {
		t.Fatalf("light %v + hot %v do not retile the old hot range %v", light.nodeRange, hot.nodeRange, hotRange)
	}
	if hot.nodeRange.Contains(boundary) == light.nodeRange.Contains(boundary) {
		t.Fatal("boundary must belong to exactly one side of the split")
	}
	// About half the hot load changed hands, and every key is still found.
	if light.data.Len() < len(keys)/4 || hot.data.Len() < len(keys)/4 {
		t.Fatalf("split too lopsided: light holds %d, hot holds %d of %d", light.data.Len(), hot.data.Len(), len(keys))
	}
	for _, k := range append(keys, lightKey) {
		if _, found, _, err := nw.SearchExact(nw.RandomPeer(), k); err != nil || !found {
			t.Fatalf("key %d unreachable after forced rejoin: found=%v err=%v", k, found, err)
		}
	}
	if nw.LoadBalanceStats().Events == 0 {
		t.Fatal("forced rejoin must count as a load-balance event")
	}
}

// TestForcedRejoinRejections: every invalid configuration is rejected before
// any mutation, leaving the network untouched.
func TestForcedRejoinRejections(t *testing.T) {
	nw := buildPlainNetwork(t, 24, 13)
	light, hot := forcedRejoinPair(t, nw)
	boundary := hot.nodeRange.Lower + keyspace.Key(hot.nodeRange.Size()/2)
	cases := []struct {
		name       string
		light, hot PeerID
		boundary   keyspace.Key
	}{
		{"unknown light", PeerID(99_999), hot.id, boundary},
		{"unknown hot", light.id, PeerID(99_999), boundary},
		{"self", hot.id, hot.id, boundary},
		{"root recruited", nw.root.id, hot.id, boundary},
		{"boundary at lower edge", light.id, hot.id, hot.nodeRange.Lower},
		{"boundary above range", light.id, hot.id, hot.nodeRange.Upper},
	}
	// An adjacent pair must be redirected to ShiftBoundary.
	if adj := light.rightAdj; adj != nil && adj.nodeRange.Size() >= 2 {
		cases = append(cases, struct {
			name       string
			light, hot PeerID
			boundary   keyspace.Key
		}{"adjacent heir", light.id, adj.id, adj.nodeRange.Lower + keyspace.Key(adj.nodeRange.Size()/2)})
	}
	for _, tc := range cases {
		if _, err := nw.ForcedRejoin(tc.light, tc.hot, tc.boundary); err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if err := nw.CheckInvariants(); err != nil {
			t.Fatalf("%s: failed rejoin mutated the network: %v", tc.name, err)
		}
	}
}

func TestTriggerLoadBalanceManually(t *testing.T) {
	nw := NewNetwork(Config{Seed: 9, LoadBalance: LoadBalanceConfig{OverloadThreshold: 50}})
	rng := rand.New(rand.NewSource(9))
	for nw.Size() < 30 {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
	}
	// Overload one specific peer directly through targeted inserts.
	target := nw.Peers()[10]
	for i := 0; i < 200; i++ {
		k := target.Range.Lower + keyspace.Key(int64(i)%target.Range.Size())
		owner, _, err := nw.Owner(nw.RandomPeer(), k)
		if err != nil {
			t.Fatal(err)
		}
		n := nw.nodes[owner.ID]
		n.data.Put(k, nil) // bypass automatic balancing to build up load
	}
	// Find the now-overloaded peer and trigger balancing explicitly.
	var hot PeerID
	for _, p := range nw.Peers() {
		if p.DataCount > 50 {
			hot = p.ID
			break
		}
	}
	if hot == NoPeer {
		t.Skip("no peer exceeded the threshold; range too wide for targeted overload")
	}
	did, cost, err := nw.TriggerLoadBalance(hot)
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("TriggerLoadBalance should have acted on an overloaded peer")
	}
	if cost.Messages == 0 {
		t.Fatal("load balancing should cost messages")
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Triggering on a peer that is not overloaded is a no-op.
	cold := nw.Peers()[0].ID
	for _, p := range nw.Peers() {
		if p.DataCount == 0 {
			cold = p.ID
			break
		}
	}
	did, _, err = nw.TriggerLoadBalance(cold)
	if err != nil {
		t.Fatal(err)
	}
	if did {
		t.Fatal("TriggerLoadBalance should not act on a peer below the threshold")
	}
	// Unknown peers are rejected.
	if _, _, err := nw.TriggerLoadBalance(PeerID(12345)); err == nil {
		t.Fatal("TriggerLoadBalance on an unknown peer should error")
	}
}
