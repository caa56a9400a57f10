package main

import (
	"fmt"
	"math/rand"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/stats"
	"baton/internal/workload"
	"baton/internal/workload/driver"
)

type throughputOptions struct {
	peers, items, clients, ops           int
	getFrac, putFrac, delFrac, rangeFrac float64
	selectivity                          float64
	kill, bulkSize                       int
	plan, rangeDist                      string
	route                                p2p.RouteMode
	seed                                 int64
	fanout                               int
	traceSample                          int
	metricsOut                           string
	transport, listen, seedAddr          string
}

// runThroughput is the batonsim throughput mode: it drives the live cluster
// with the closed-loop concurrent workload and prints ops/sec and latency
// percentiles.
func runThroughput(o throughputOptions) {
	cfg := driver.Config{
		Clients:          o.clients,
		Ops:              o.ops,
		GetFraction:      o.getFrac,
		PutFraction:      o.putFrac,
		DeleteFraction:   o.delFrac,
		RangeFraction:    o.rangeFrac,
		RangeSelectivity: o.selectivity,
		Plan:             o.plan,
		RangeDist:        o.rangeDist,
		BulkSize:         o.bulkSize,
		Route:            o.route,
		KillPeers:        o.kill,
		TraceSample:      o.traceSample,
		Seed:             o.seed,
	}
	// Reject an unknown -plan or -rangedist before the cluster is built, so
	// a bad flag fails fast.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	var (
		cluster *p2p.Cluster
		keys    []keyspace.Key
		stop    func()
		err     error
	)
	if o.seedAddr != "" {
		fmt.Printf("attaching to coordinator at %s, preloading %d items ...\n", o.seedAddr, o.items)
		cluster, keys, err = driver.AttachCluster(o.seedAddr, o.items, o.seed)
		stop = func() {
			if cluster != nil {
				cluster.Stop()
			}
		}
	} else {
		fmt.Printf("building live cluster: %d peers, %d items, fanout %d, transport %s ...\n", o.peers, o.items, max(2, o.fanout), o.transport)
		cluster, keys, stop, err = buildScenarioCluster(o.transport, o.listen, o.peers, o.items, o.seed, workload.Uniform, 0, o.fanout)
	}
	if err != nil {
		fatal(err)
	}
	defer stop()

	cfg.Keys = keys
	rep := driver.Run(cluster, cfg)
	rangeMode := "parallel fan-out"
	if o.plan != "" {
		rangeMode = o.plan
	}
	fmt.Printf("throughput run (route mode: %s, range mode: %s, transport: %s)\n", o.route, rangeMode, o.transport)
	fmt.Print(rep.String())
	fmt.Printf("peer-to-peer messages delivered: %d\n", cluster.Messages())
	if o.route == p2p.RouteDirect {
		fmt.Printf("stale direct routes (fell back to overlay): %d\n", cluster.StaleRoutes())
	}
	writeObsDump(cluster, o.metricsOut)
}

type rangecmpOptions struct {
	peers, items, queries int
	selectivity           float64
	seed                  int64
	fanout                int
	// plan restricts the comparison to one plan ("serial", "parallel" or
	// "adaptive"); empty compares all three.
	plan string
	// rangeDist shapes the per-query selectivity: "" / "fixed" (every query
	// at -selectivity), "uniform" (uniform in (0, 2·selectivity]) or
	// "bimodal" (half at selectivity/16, half at 16·selectivity).
	rangeDist string
}

// runRangeCompare benchmarks the range plans against each other on the same
// live cluster — the serial chain walk, the parallel fan-out and the
// adaptive planner — and prints per-query latency plus the speedup. All
// plans answer the same (via, range) sequence, so routing distance cannot
// differ between them.
func runRangeCompare(o rangecmpOptions) {
	plans := []string{driver.PlanSerial, driver.PlanParallel, driver.PlanAdaptive}
	if o.plan != "" {
		switch o.plan {
		case driver.PlanSerial, driver.PlanParallel, driver.PlanAdaptive:
			plans = []string{o.plan}
		default:
			fatal(fmt.Errorf("unknown -plan %q (want serial, parallel or adaptive)", o.plan))
		}
	}
	switch o.rangeDist {
	case "", driver.RangeDistFixed, driver.RangeDistUniform, driver.RangeDistBimodal:
	default:
		fatal(fmt.Errorf("unknown -rangedist %q (want fixed, uniform or bimodal)", o.rangeDist))
	}
	fmt.Printf("building live cluster: %d peers, %d items, fanout %d ...\n", o.peers, o.items, max(2, o.fanout))
	cluster, _, err := driver.BuildClusterFanout(o.peers, o.items, o.seed, o.fanout)
	if err != nil {
		fatal(err)
	}
	defer cluster.Stop()
	ids := cluster.PeerIDs()
	queries := o.queries
	if queries <= 0 {
		queries = 200
	}
	gen := workload.NewGenerator(workload.Config{Seed: o.seed + 2})
	rng := rand.New(rand.NewSource(o.seed + 3))
	selOf := func() float64 {
		s := o.selectivity
		switch o.rangeDist {
		case driver.RangeDistUniform:
			s *= 2 * rng.Float64()
		case driver.RangeDistBimodal:
			if rng.Intn(2) == 0 {
				s /= 16
			} else {
				s *= 16
			}
		}
		return min(1, s)
	}
	ranges := make([]keyspace.Range, queries)
	for i := range ranges {
		ranges[i] = gen.RangeQuery(selOf())
	}
	vias := make([]core.PeerID, len(ranges))
	for i := range vias {
		vias[i] = ids[rng.Intn(len(ids))]
	}

	// Warm every code path (scheduler, allocator, reply-channel pool)
	// before measuring so the first plan measured doesn't absorb the
	// cold-start cost and skew the printed speedup.
	for i := 0; i < 64 && i < len(ranges); i++ {
		cluster.RangeSerial(vias[i], ranges[i])
		cluster.Range(vias[i], ranges[i])
		cluster.RangeAdaptive(vias[i], ranges[i])
	}

	measure := func(plan string) (*stats.Latency, int) {
		lat := &stats.Latency{}
		maxHops := 0
		for i, r := range ranges {
			via := vias[i]
			t0 := time.Now()
			var hops int
			var err error
			switch plan {
			case driver.PlanSerial:
				_, hops, err = cluster.RangeSerial(via, r)
			case driver.PlanAdaptive:
				_, hops, err = cluster.RangeAdaptive(via, r)
			default:
				_, hops, err = cluster.Range(via, r)
			}
			if err != nil {
				fatal(err)
			}
			lat.Add(float64(time.Since(t0).Microseconds()))
			if hops > maxHops {
				maxHops = hops
			}
		}
		return lat, maxHops
	}

	dist := o.rangeDist
	if dist == "" {
		dist = driver.RangeDistFixed
	}
	fmt.Printf("%d range queries, selectivity %.3f (%s widths, ≈%.0f peers per range at the base width)\n",
		queries, o.selectivity, dist, o.selectivity*float64(o.peers))
	fmt.Printf("%-18s %10s %10s %10s %10s\n", "plan", "mean µs", "p50 µs", "p99 µs", "max hops")
	results := make(map[string]*stats.Latency, len(plans))
	statsBefore := cluster.PlanStats()
	for _, plan := range plans {
		lat, hops := measure(plan)
		results[plan] = lat
		fmt.Printf("%-18s %10.0f %10.0f %10.0f %10d\n", plan, lat.Mean(), lat.Percentile(0.5), lat.Percentile(0.99), hops)
	}
	if s, p := results[driver.PlanSerial], results[driver.PlanParallel]; s != nil && p != nil && p.Mean() > 0 {
		fmt.Printf("parallel speedup over serial: %.2fx (mean latency)\n", s.Mean()/p.Mean())
	}
	if results[driver.PlanAdaptive] != nil {
		ps := cluster.PlanStats()
		fmt.Printf("adaptive plans serial/parallel %d/%d\n",
			ps.Serial-statsBefore.Serial, ps.Parallel-statsBefore.Parallel)
	}
}
