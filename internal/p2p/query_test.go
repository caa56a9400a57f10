package p2p

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"baton/internal/keyspace"
	"baton/internal/query"
	"baton/internal/store"
)

// uniqueSortedKeys dedups the inserted key list (the generator can collide;
// a colliding insert overwrites) into the ground-truth key set.
func uniqueSortedKeys(keys []keyspace.Key) []keyspace.Key {
	seen := make(map[keyspace.Key]bool, len(keys))
	out := make([]keyspace.Key, 0, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// keysIn returns the subset of ks that fall inside r, in key order.
func keysIn(ks []keyspace.Key, r keyspace.Range) []keyspace.Key {
	var out []keyspace.Key
	for _, k := range ks {
		if r.Contains(k) {
			out = append(out, k)
		}
	}
	return out
}

// checkExactItems asserts items is exactly the key set want: no lost keys,
// no duplicates, nothing outside the set.
func checkExactItems(t *testing.T, items []store.Item, want []keyspace.Key, label string) {
	t.Helper()
	wantSet := make(map[keyspace.Key]bool, len(want))
	for _, k := range want {
		wantSet[k] = true
	}
	got := make(map[keyspace.Key]bool, len(items))
	for _, it := range items {
		if got[it.Key] {
			t.Fatalf("%s: duplicated key %d", label, it.Key)
		}
		got[it.Key] = true
		if !wantSet[it.Key] {
			t.Fatalf("%s: unexpected key %d", label, it.Key)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct keys, want %d", label, len(got), len(want))
	}
}

// TestEstimateSpanMatchesCore pins the planner's input against ground
// truth: on a quiesced cluster at every supported fanout flavour (binary
// BATON and BATON* at m=4 and m=8), EstimateSpan of a range must equal the
// number of peers whose snapshot range overlaps it — the ring published to
// clients and the structural state audited through core agree exactly.
func TestEstimateSpanMatchesCore(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			c, _ := liveClusterFanout(t, 48, 200, int64(900+m), m)
			snaps, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			truth := func(r keyspace.Range) int {
				n := 0
				for _, ps := range snaps {
					if ps.Range.Lower < r.Upper && ps.Range.Upper > r.Lower {
						n++
					}
				}
				return n
			}
			if got := c.EstimateSpan(keyspace.FullDomain()); got != c.Size() {
				t.Fatalf("full-domain span = %d, want cluster size %d", got, c.Size())
			}
			rng := rand.New(rand.NewSource(int64(m)))
			for i := 0; i < 200; i++ {
				lo := keyspace.DomainMin + keyspace.Key(rng.Int63n(int64(keyspace.DomainMax-keyspace.DomainMin)))
				width := keyspace.Key(1 + rng.Int63n(int64(keyspace.DomainMax-lo)))
				r := keyspace.NewRange(lo, lo+width)
				if got, want := c.EstimateSpan(r), truth(r); got != want {
					t.Fatalf("EstimateSpan(%v) = %d, want %d (overlapping peer ranges)", r, got, want)
				}
			}
			// A single-key range touches exactly its owner.
			if got := c.EstimateSpan(keyspace.NewRange(500_000, 500_001)); got != 1 {
				t.Fatalf("single-key span = %d, want 1", got)
			}
		})
	}
}

// TestAdaptiveRangeMatchesFixedPlans checks the planned path returns the
// same answer as both fixed flavours across widths, and that each width
// runs the plan the fixed span rule assigns it: a one-peer range walks
// the chain, wider ones scatter (on this cluster the 80M width spans
// exactly query.SerialSpanLimit peers, the first span that scatters).
func TestAdaptiveRangeMatchesFixedPlans(t *testing.T) {
	c, keys := liveCluster(t, 60, 600, 41)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		width keyspace.Key
		want  query.Plan
	}{
		{5_000_000, query.PlanSerial},
		{80_000_000, query.PlanParallel},
		{400_000_000, query.PlanParallel},
		{999_000_000, query.PlanParallel},
	} {
		lo := keyspace.DomainMin + keyspace.Key(rng.Int63n(int64(keyspace.DomainMax-tc.width)))
		r := keyspace.NewRange(lo, lo+tc.width)
		via := ids[rng.Intn(len(ids))]
		before := c.PlanStats()
		items, _, err := c.RangeAdaptive(via, r)
		if err != nil {
			t.Fatalf("adaptive range %v: %v", r, err)
		}
		checkExactItems(t, items, keysIn(uniq, r), fmt.Sprintf("adaptive width %d", tc.width))
		after := c.PlanStats()
		got := query.PlanSerial
		if after.Parallel-before.Parallel == 1 {
			got = query.PlanParallel
		}
		if d := (after.Serial - before.Serial) + (after.Parallel - before.Parallel); d != 1 || got != tc.want {
			t.Fatalf("width %d (span %d): %d plan decisions, ran %v, want one %v",
				tc.width, c.EstimateSpan(r), d, got, tc.want)
		}
	}
}

// TestAdaptiveRangeEntersAtItsOwnOwner pins that an adaptive range's cost
// does not depend on which ranges ran before it. Two equally wide ranges
// starting in the same width-aligned window of the key space — ranges a
// coarse per-bucket plan cache would conflate — must each enter at the
// owner of their own lower bound: the second one, issued right after the
// first, costs exactly the messages and hops it costs issued cold on an
// identical cluster.
func TestAdaptiveRangeEntersAtItsOwnOwner(t *testing.T) {
	first := keyspace.NewRange(10_000_000, 410_000_000)
	second := keyspace.NewRange(300_000_000, 700_000_000)
	cost := func(c *Cluster, r keyspace.Range) (int64, int) {
		t.Helper()
		msgs := c.Messages()
		_, hops, err := c.RangeAdaptive(c.PeerIDs()[0], r)
		if err != nil {
			t.Fatalf("adaptive range %v: %v", r, err)
		}
		return c.Messages() - msgs, hops
	}

	cold, _ := liveCluster(t, 60, 600, 47)
	coldMsgs, coldHops := cost(cold, second)

	warm, _ := liveCluster(t, 60, 600, 47)
	topo := warm.topo.Load()
	if topo.entryIdx(first.Lower) == topo.entryIdx(second.Lower) {
		t.Fatal("both ranges start at the same owner; the test needs distinct entry peers")
	}
	cost(warm, first)
	warmMsgs, warmHops := cost(warm, second)
	if warmMsgs != coldMsgs || warmHops != coldHops {
		t.Fatalf("range %v after %v cost %d msgs / %d hops, issued cold %d msgs / %d hops",
			second, first, warmMsgs, warmHops, coldMsgs, coldHops)
	}
}

// TestGetFilteredPushdown pins the single-key pushdown contract: found
// reports present AND matching, and a non-matching value stays put.
func TestGetFilteredPushdown(t *testing.T) {
	c, keys := liveCluster(t, 30, 200, 44)
	ids := c.PeerIDs()
	k := uniqueSortedKeys(keys)[10]
	v, found, _, err := c.GetFiltered(ids[0], k, &query.Pred{MinValueLen: 1})
	if err != nil || !found || string(v) != fmt.Sprint(k) {
		t.Fatalf("matching pred: %q %v %v", v, found, err)
	}
	if _, found, _, err = c.GetFiltered(ids[1], k, &query.Pred{MinValueLen: 100}); err != nil || found {
		t.Fatalf("min-len pred should filter the value out: found=%v err=%v", found, err)
	}
	if _, found, _, err = c.GetFiltered(ids[2], k, &query.Pred{Keys: []keyspace.Key{k}}); err != nil || !found {
		t.Fatalf("key-set pred naming the key should match: found=%v err=%v", found, err)
	}
	if _, found, _, err = c.GetFiltered(ids[3], k, &query.Pred{Keys: []keyspace.Key{k + 1}}); err != nil || found {
		t.Fatalf("key-set pred naming another key should not match: found=%v err=%v", found, err)
	}
}

// TestRangeFilteredPushdown pins the range pushdown: predicate fields
// filter at the owning peers, a limit returns the lowest matching keys
// (the serial walk runs left to right), and the limited walk terminates
// the chain early — measurably fewer hops than the full walk.
func TestRangeFilteredPushdown(t *testing.T) {
	c, keys := liveCluster(t, 60, 800, 45)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	r := keyspace.NewRange(100_000_000, 900_000_000)
	inRange := keysIn(uniq, r)
	if len(inRange) < 20 {
		t.Fatalf("test needs a populated range, got %d keys", len(inRange))
	}

	items, _, err := c.RangeFiltered(ids[0], r, &query.Pred{MinValueLen: 100})
	if err != nil || len(items) != 0 {
		t.Fatalf("min-len pred should filter everything: %d items, err %v", len(items), err)
	}

	want := []keyspace.Key{inRange[3], inRange[7], inRange[11]}
	items, _, err = c.RangeFiltered(ids[1], r, &query.Pred{Keys: want})
	if err != nil {
		t.Fatal(err)
	}
	checkExactItems(t, items, want, "key-set pushdown")

	const limit = 5
	items, limHops, err := c.RangeFiltered(ids[2], r, &query.Pred{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	checkExactItems(t, items, inRange[:limit], "limited walk")
	_, fullHops, err := c.RangeSerial(ids[2], r)
	if err != nil {
		t.Fatal(err)
	}
	if limHops >= fullHops {
		t.Fatalf("limited walk took %d hops, full serial walk %d: the limit did not terminate the chain early", limHops, fullHops)
	}
}

// TestRangeIterStreams pins the iterator contract on a healthy cluster:
// the full item set arrives (in segment-arrival order, so compared as a
// set), Err is nil, Hops is populated, and a filtered iterator with a
// limit yields exactly limit items then stops.
func TestRangeIterStreams(t *testing.T) {
	c, keys := liveCluster(t, 60, 800, 46)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	r := keyspace.NewRange(200_000_000, 800_000_000)

	it, err := c.RangeIter(ids[0], r)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var items []store.Item
	for it.Next() {
		items = append(items, it.Item())
	}
	if it.Err() != nil {
		t.Fatalf("iterator ended with %v", it.Err())
	}
	checkExactItems(t, items, keysIn(uniq, r), "streamed range")
	if it.Hops() == 0 {
		t.Fatal("iterator reported no hops")
	}

	const limit = 7
	lit, err := c.RangeIterFiltered(ids[1], r, &query.Pred{Limit: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer lit.Close()
	n := 0
	for lit.Next() {
		if !r.Contains(lit.Item().Key) {
			t.Fatalf("limited iterator yielded %d outside the range", lit.Item().Key)
		}
		n++
	}
	if n != limit {
		t.Fatalf("limited iterator yielded %d items, want %d", n, limit)
	}
	if lit.Err() != nil {
		t.Fatalf("limited iterator ended with %v", lit.Err())
	}
}

// TestRangeIterEpochBumpMidIteration is the red/green churn case: an
// iterator started under one epoch keeps streaming the exact item set
// while a join and a departure republish ownership mid-consumption.
func TestRangeIterEpochBumpMidIteration(t *testing.T) {
	c, keys := liveCluster(t, 50, 900, 47)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	r := keyspace.NewRange(100_000_000, 950_000_000)

	it, err := c.RangeIter(ids[0], r)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var items []store.Item
	for i := 0; i < 10 && it.Next(); i++ {
		items = append(items, it.Item())
	}
	// Membership changes mid-consumption: both bump the epoch and move
	// item ownership under the running scatter. They run concurrently with
	// the consumption below — the sink's backpressure means producing
	// peers block on a paused consumer, so a consumer must keep consuming
	// (or Close) while structural ops proceed.
	churnDone := make(chan error, 1)
	go func() {
		joined, err := c.Join(ids[1])
		if err != nil {
			churnDone <- err
			return
		}
		churnDone <- c.Depart(joined)
	}()
	for it.Next() {
		items = append(items, it.Item())
	}
	if it.Err() != nil {
		t.Fatalf("iterator across epoch bumps ended with %v", it.Err())
	}
	if err := <-churnDone; err != nil {
		t.Fatalf("churn during iteration: %v", err)
	}
	checkExactItems(t, items, keysIn(uniq, r), "iterator across join+depart")
}

// TestQueryLayerChurnStress interleaves every query-layer entry point with
// joins, departures, crashes and recoveries under the race detector. The
// exactness contract: a query that reports success returns the complete
// item set for its range with no duplicates — churn may fail a query
// (ErrOwnerDown) but must never silently lose or duplicate items. The data
// set is static (no writes), so ground truth never moves.
func TestQueryLayerChurnStress(t *testing.T) {
	c, keys := liveCluster(t, 80, 800, 48)
	ids := c.PeerIDs()
	uniq := uniqueSortedKeys(keys)
	const workers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < perWorker; i++ {
				via := ids[rng.Intn(len(ids))]
				lo := keyspace.DomainMin + keyspace.Key(rng.Int63n(700_000_000))
				r := keyspace.NewRange(lo, lo+keyspace.Key(1+rng.Int63n(250_000_000)))
				switch i % 4 {
				case 0:
					items, _, err := c.RangeAdaptive(via, r)
					if err == nil {
						checkExactItems(t, items, keysIn(uniq, r), "adaptive under churn")
					}
				case 1:
					it, err := c.RangeIter(via, r)
					if err != nil {
						continue
					}
					var items []store.Item
					for it.Next() {
						items = append(items, it.Item())
					}
					if it.Err() == nil {
						checkExactItems(t, items, keysIn(uniq, r), "iterator under churn")
					}
					it.Close()
				case 2:
					k := uniq[rng.Intn(len(uniq))]
					v, found, _, err := c.GetFiltered(via, k, &query.Pred{MinValueLen: 1})
					if err == nil && found && string(v) != fmt.Sprint(k) {
						t.Errorf("filtered get of %d returned %q", k, v)
					}
				case 3:
					items, _, err := c.RangeFiltered(via, r, &query.Pred{Limit: 10})
					if err == nil && len(items) > 10 {
						t.Errorf("limited range returned %d items", len(items))
					}
				}
			}
		}(w)
	}
	// Churn alongside the queries: grow, shrink, crash and recover. Any
	// individual structural op may be refused (e.g. departing a peer that
	// is mid-something); refusals are not failures.
	churn := rand.New(rand.NewSource(49))
	for i := 0; i < 12; i++ {
		if id, err := c.Join(ids[churn.Intn(len(ids))]); err == nil && i%2 == 0 {
			c.Depart(id)
		}
		victim := ids[churn.Intn(len(ids))]
		if err := c.Kill(victim); err == nil {
			time.Sleep(time.Millisecond)
			c.Recover(victim)
		}
	}
	withTimeout(t, 60*time.Second, "query layer under churn", wg.Wait)
}

// benchRangeCluster builds one shared cluster for the allocation
// benchmarks: wide enough that a full-domain range is a real scatter.
var benchRange = keyspace.FullDomain()

// BenchmarkRangeMaterialised is the baseline the streaming iterator is
// judged against: the scatter gathers every branch's items, merges and
// sorts them into one O(result) slice. Run with -benchmem: the bytes/op
// are dominated by the merged result and the accumulated branch buffers.
func BenchmarkRangeMaterialised(b *testing.B) {
	c, _ := liveCluster(b, 32, 2000, 50)
	ids := c.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, _, err := c.Range(ids[i%len(ids)], benchRange)
		if err != nil {
			b.Fatal(err)
		}
		if len(items) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkRangeIterStreaming consumes the same range through the bounded
// sink: peers ship fixed-size batches and nothing ever materialises the
// whole result, so peak memory is O(batch × in-flight branches) instead of
// O(result) — visible in bytes/op next to BenchmarkRangeMaterialised.
func BenchmarkRangeIterStreaming(b *testing.B) {
	c, _ := liveCluster(b, 32, 2000, 50)
	ids := c.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := c.RangeIter(ids[i%len(ids)], benchRange)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() != nil || n == 0 {
			b.Fatalf("streamed %d items, err %v", n, it.Err())
		}
		it.Close()
	}
}
