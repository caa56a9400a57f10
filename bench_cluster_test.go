// Live-cluster benchmarks: where bench_test.go regenerates the paper's
// message-count figures from the serialised simulator, this file measures
// the wall-clock behaviour of the concurrent goroutine-per-peer cluster —
// the parallel range fan-out against the sequential adjacent-chain walk,
// batched bulk operations against routed singleton operations, and the
// closed-loop throughput driver. Run with:
//
//	go test -bench=Cluster -benchmem .
package baton_test

import (
	"math/rand"
	"sync"
	"testing"

	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/store"
	"baton/internal/workload"
	"baton/internal/workload/driver"
)

// clusterCache lazily builds and shares one loaded 256-peer live cluster;
// building (joins + inserts through the simulator) would otherwise dominate
// any single benchmark's runtime.
type clusterCache struct {
	sync.Once
	c    *p2p.Cluster
	keys []keyspace.Key
}

func (cc *clusterCache) get() (*p2p.Cluster, []keyspace.Key) {
	cc.Do(func() {
		c, keys, _, err := driver.BuildCluster(driver.ClusterSpec{Peers: benchPeers, Items: benchItems, Seed: 1})
		if err != nil {
			panic(err)
		}
		cc.c = c
		cc.keys = keys
	})
	return cc.c, cc.keys
}

// The write-heavy benchmarks (puts, bulk puts, the mixed driver) share one
// cluster they are free to grow; the range benchmarks use a separate one
// that nothing mutates, so the serial-vs-parallel comparison always scans
// exactly benchItems items regardless of benchmark order or -count.
var (
	benchWriteCluster clusterCache
	benchRangeCluster clusterCache
)

const (
	benchPeers = 256
	benchItems = 20_000
)

// benchRanges returns deterministic query ranges spanning ≥ 32 of the 256
// peers (selectivity 0.15 of the domain ≈ 38 peers).
func benchRanges(n int) []keyspace.Range {
	gen := workload.NewGenerator(workload.Config{Seed: 3})
	out := make([]keyspace.Range, n)
	for i := range out {
		out[i] = gen.RangeQuery(0.15)
	}
	return out
}

// BenchmarkClusterRangeSerial walks wide range queries through the
// sequential adjacent-chain protocol of Section IV-B: latency is linear in
// the number of peers covering the range.
func BenchmarkClusterRangeSerial(b *testing.B) {
	c, _ := benchRangeCluster.get()
	ids := c.PeerIDs()
	ranges := benchRanges(64)
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		_, h, err := c.RangeSerial(ids[i%len(ids)], ranges[i%len(ranges)])
		if err != nil {
			b.Fatal(err)
		}
		if h > hops {
			hops = h
		}
	}
	b.ReportMetric(float64(hops), "max-chain-hops")
}

// BenchmarkClusterRangeParallel answers the same wide queries with the
// parallel fan-out: the critical path shrinks to the scatter depth, which
// is what the max-chain-hops metric shows against the serial benchmark.
func BenchmarkClusterRangeParallel(b *testing.B) {
	c, _ := benchRangeCluster.get()
	ids := c.PeerIDs()
	ranges := benchRanges(64)
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		_, h, err := c.Range(ids[i%len(ids)], ranges[i%len(ranges)])
		if err != nil {
			b.Fatal(err)
		}
		if h > hops {
			hops = h
		}
	}
	b.ReportMetric(float64(hops), "max-chain-hops")
}

// BenchmarkClusterGetOverlay looks keys up through the paper-faithful
// per-hop overlay routing — the baseline the direct route cache is measured
// against.
func BenchmarkClusterGetOverlay(b *testing.B) {
	c, keys := benchRangeCluster.get()
	c.SetRouteMode(p2p.RouteOverlay)
	ids := c.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := c.Get(ids[i%len(ids)], keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkClusterGetDirect looks the same keys up through the
// epoch-validated route cache: one delivered message per lookup instead of
// the O(log N) hop chain, and no client-side allocation thanks to the
// pooled reply channels.
func BenchmarkClusterGetDirect(b *testing.B) {
	c, keys := benchRangeCluster.get()
	c.SetRouteMode(p2p.RouteDirect)
	defer c.SetRouteMode(p2p.RouteOverlay)
	ids := c.PeerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _, err := c.Get(ids[i%len(ids)], keys[i%len(keys)]); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// TestDirectGetAllocsPerOp pins down the zero-alloc request path: a
// direct-routed Get on a quiesced cluster must not allocate on either side
// of the message exchange — the reply channel comes from the pool, the
// request and response travel by value — so the whole-process allocation
// count per operation stays at (amortised) zero. The bound of 2 leaves room
// for scheduler and pool-refill noise while still failing loudly if a
// per-op allocation sneaks back onto the path.
func TestDirectGetAllocsPerOp(t *testing.T) {
	c, keys := benchRangeCluster.get()
	c.SetRouteMode(p2p.RouteDirect)
	defer c.SetRouteMode(p2p.RouteOverlay)
	via := c.PeerIDs()[0]
	// Warm the reply-channel pool and the route cache path.
	for i := 0; i < 100; i++ {
		c.Get(via, keys[i%len(keys)])
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, ok, _, err := c.Get(via, keys[i%len(keys)]); err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
		i++
	})
	if allocs > 2 {
		t.Fatalf("direct get allocates %.1f objects per op, want (amortised) 0 — the pooled reply-channel path regressed", allocs)
	}
}

// BenchmarkClusterPutRouted stores a batch of 64 keys one routed request at
// a time — the baseline BulkPut amortises.
func BenchmarkClusterPutRouted(b *testing.B) {
	c, _ := benchWriteCluster.get()
	ids := c.PeerIDs()
	rng := rand.New(rand.NewSource(5))
	value := []byte("v")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			k := keyspace.Key(1 + rng.Int63n(999_999_998))
			if _, err := c.Put(ids[j%len(ids)], k, value); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkClusterBulkPut stores the same sized batch through BulkPut: one
// pipelined message per responsible peer instead of one routed walk per key.
func BenchmarkClusterBulkPut(b *testing.B) {
	c, _ := benchWriteCluster.get()
	rng := rand.New(rand.NewSource(6))
	batch := make([]store.Item, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = store.Item{Key: keyspace.Key(1 + rng.Int63n(999_999_998)), Value: []byte("v")}
		}
		res, err := c.BulkPut(batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkClusterThroughput runs the closed-loop driver (16 clients, mixed
// 70/20/10 get/put/range workload) and reports ops/sec and tail latency as
// benchmark metrics.
func BenchmarkClusterThroughput(b *testing.B) {
	c, keys := benchWriteCluster.get()
	b.ResetTimer()
	var rep driver.Report
	for i := 0; i < b.N; i++ {
		rep = driver.Run(c, driver.Config{
			Clients:          16,
			Ops:              4_000,
			GetFraction:      0.7,
			PutFraction:      0.2,
			RangeFraction:    0.1,
			RangeSelectivity: 0.01,
			Keys:             keys,
			Seed:             int64(i),
		})
	}
	b.ReportMetric(rep.OpsPerSec, "ops/sec")
	b.ReportMetric(rep.Latency[driver.OpAll].Percentile(0.99), "p99-µs")
}

// BenchmarkClusterThroughputSteadyChurn is the paired comparison for
// BenchmarkClusterThroughput: the identical workload while 8 peers join and
// 8 depart mid-run, measuring what live membership costs the data path.
func BenchmarkClusterThroughputSteadyChurn(b *testing.B) {
	// A private cluster: churn changes the composition, which must not leak
	// into the other benchmarks sharing the cached ones.
	c, keys, stop, err := driver.BuildCluster(driver.ClusterSpec{Peers: benchPeers, Items: benchItems, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	b.ResetTimer()
	var rep driver.Report
	for i := 0; i < b.N; i++ {
		rep = driver.Run(c, driver.Config{
			Clients:          16,
			Ops:              4_000,
			GetFraction:      0.7,
			PutFraction:      0.2,
			RangeFraction:    0.1,
			RangeSelectivity: 0.01,
			Keys:             keys,
			JoinPeers:        8,
			DepartPeers:      8,
			Seed:             int64(i),
		})
	}
	b.ReportMetric(rep.OpsPerSec, "ops/sec")
	b.ReportMetric(rep.Latency[driver.OpAll].Percentile(0.99), "p99-µs")
}

// BenchmarkClusterJoin measures one online join — Algorithm 1 locate over
// live messages, range split, data handoff and routing updates — against a
// loaded 64-peer cluster; each iteration departs a peer outside the timer
// so the cluster size (and therefore the per-join cost) holds steady.
func BenchmarkClusterJoin(b *testing.B) {
	c, _, stop, err := driver.BuildCluster(driver.ClusterSpec{Peers: 64, Items: benchItems, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := c.PeerIDs()
		via := ids[rng.Intn(len(ids))]
		if _, err := c.Join(via); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		ids = c.PeerIDs()
		if err := c.Depart(ids[rng.Intn(len(ids))]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkClusterRecover measures one full crash repair: kill (store
// wipe) plus Recover — structural crash-leave on the mirror, replica fetch
// from the holder, range restoration into the new owner, link updates and
// replica re-seating. Each iteration joins a fresh peer outside the timer
// so the cluster size holds steady.
func BenchmarkClusterRecover(b *testing.B) {
	c, _, stop, err := driver.BuildCluster(driver.ClusterSpec{Peers: 64, Items: benchItems, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	restored := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ids := c.PeerIDs()
		if _, err := c.Join(ids[rng.Intn(len(ids))]); err != nil {
			b.Fatal(err)
		}
		ids = c.PeerIDs()
		victim := ids[rng.Intn(len(ids))]
		b.StartTimer()
		if err := c.Kill(victim); err != nil {
			b.Fatal(err)
		}
		n, err := c.Recover(victim)
		if err != nil {
			b.Fatal(err)
		}
		restored += n
	}
	b.ReportMetric(float64(restored)/float64(b.N), "items-restored/op")
}

// BenchmarkClusterThroughputCrashChurn is the availability-under-crashes
// companion of BenchmarkClusterThroughputSteadyChurn: the identical mixed
// workload while 8 peers crash and 8 repairs run mid-run, measuring what
// the kill -> ErrOwnerDown -> recover cycle costs the data path.
func BenchmarkClusterThroughputCrashChurn(b *testing.B) {
	// A private cluster: crashes change the composition, which must not
	// leak into the benchmarks sharing the cached clusters.
	c, keys, stop, err := driver.BuildCluster(driver.ClusterSpec{Peers: benchPeers, Items: benchItems, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	b.ResetTimer()
	var rep driver.Report
	for i := 0; i < b.N; i++ {
		rep = driver.Run(c, driver.Config{
			Clients:          16,
			Ops:              4_000,
			GetFraction:      0.7,
			PutFraction:      0.2,
			RangeFraction:    0.1,
			RangeSelectivity: 0.01,
			Keys:             keys,
			KillPeers:        8,
			RecoverPeers:     8,
			Seed:             int64(i),
		})
	}
	b.ReportMetric(rep.OpsPerSec, "ops/sec")
	b.ReportMetric(rep.Latency[driver.OpAll].Percentile(0.99), "p99-µs")
	b.ReportMetric(float64(rep.Errors), "transient-errors")
}

// BenchmarkClusterDepart measures one graceful departure with full data
// handoff; each iteration joins a fresh peer outside the timer so the
// cluster size holds steady.
func BenchmarkClusterDepart(b *testing.B) {
	c, _, stop, err := driver.BuildCluster(driver.ClusterSpec{Peers: 64, Items: benchItems, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ids := c.PeerIDs()
		if _, err := c.Join(ids[rng.Intn(len(ids))]); err != nil {
			b.Fatal(err)
		}
		ids = c.PeerIDs()
		victim := ids[rng.Intn(len(ids))]
		b.StartTimer()
		if err := c.Depart(victim); err != nil {
			b.Fatal(err)
		}
	}
}
