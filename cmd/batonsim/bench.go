package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"

	"baton/internal/chord"
	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/stats"
	"baton/internal/workload"
	"baton/internal/workload/driver"
)

type benchOptions struct {
	// cluster is the matrix cluster; the sweep, skew, overlay and TCP cells
	// build fresh clusters from it with their own seeds.
	cluster         driver.ClusterSpec
	clients, ops    int
	out             string
	requireSpeedup  float64
	compareOverlays bool
	traceSample     int
	metricsOut      string
}

// benchCase is one cell of the fixed benchmark matrix. Cells that feed the
// -requirespeedup gate run reps times and record their best run — a single
// sample of a sub-second cell is at the mercy of scheduler noise, and a
// gate that flips on noise is worse than no gate.
type benchCase struct {
	name string
	reps int
	cfg  driver.Config
}

// benchResult is one row of the tracked baseline file.
type benchResult struct {
	Name  string `json:"name"`
	Route string `json:"route"`
	// Transport is the message medium the cell's cluster ran on: "local"
	// (in-process channel inboxes) or "tcp" (the loopback wire pair), so
	// the baseline tracks serialization and wire cost alongside routing
	// cost.
	Transport string `json:"transport"`
	// Fanout is the overlay tree fanout m the cell's cluster was built with
	// (2 = binary BATON, >2 = BATON*). Zero marks the Chord comparison rows,
	// which have no tree.
	Fanout      int     `json:"fanout"`
	Ops         int64   `json:"ops"`
	Errors      int64   `json:"errors"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50us       float64 `json:"p50_us"`
	P99us       float64 `json:"p99_us"`
	MsgsPerOp   float64 `json:"msgs_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// HopsP50 and HopsP99 are percentiles of the per-op message hop counts;
	// QueueWaitP99us is the p99 of how long messages sat queued in peer
	// inboxes during this cell, in microseconds (both from the flight
	// recorder's registry).
	HopsP50        float64 `json:"hops_p50"`
	HopsP99        float64 `json:"hops_p99"`
	QueueWaitP99us float64 `json:"queue_wait_p99_us"`
	StaleRoutes    int64   `json:"stale_routes,omitempty"`
	// Imbalance is the final max/average stored-load ratio of the skew
	// cells (zipf rows only).
	Imbalance float64 `json:"imbalance,omitempty"`
	// Rebalanced counts the background balancer's actions (zipf rows only).
	Rebalanced int64 `json:"rebalanced,omitempty"`
	// PlanSerial and PlanParallel are the query layer's planning counters
	// for the cell (adaptive-plan rows only): how the fixed span rule
	// split the cell's ranges between the serial walk and the parallel
	// scatter.
	PlanSerial   int64 `json:"plan_serial,omitempty"`
	PlanParallel int64 `json:"plan_parallel,omitempty"`
}

// benchReport is the schema of BENCH_p2p.json: the run parameters plus one
// result row per matrix cell, so successive PRs diff against a fixed shape.
type benchReport struct {
	Peers      int           `json:"peers"`
	Items      int           `json:"items"`
	Clients    int           `json:"clients"`
	OpsPerCase int           `json:"ops_per_case"`
	Seed       int64         `json:"seed"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Results    []benchResult `json:"results"`
}

// fresh returns the spec of a cluster built next to the matrix one: the
// matrix spec at a seed offset, on a free port if it runs over tcp.
func (o benchOptions) fresh(seedOffset int64) driver.ClusterSpec {
	spec := o.cluster
	spec.Seed += seedOffset
	spec.Listen = ""
	return spec
}

// gateMargin softens the -requirespeedup comparison: the gate cells are
// best-of-3, but machine noise between the direct and overlay measurements
// can still be a few percent, and the gate exists to catch regressions, not
// jitter.
const gateMargin = 0.95

// runBench is the batonsim bench mode: it runs a fixed performance matrix —
// overlay-routed vs direct-routed singleton gets and puts, batched bulk
// puts, serial vs parallel ranges, the mixed workload under membership
// churn and under crash/repair faults, and the Zipf(1.0) skewed workload
// with the auto-balancer off vs on — and writes the results to the tracked
// baseline file (BENCH_p2p.json), so every future change has a trajectory
// to beat. With -requirespeedup X the mode exits non-zero unless
// direct-mode singleton throughput beats overlay-mode by at least that
// factor (best-of-3 per cell, with a small noise margin), which is what the
// CI bench-smoke step gates on.
func runBench(o benchOptions) {
	if o.clients <= 0 {
		o.clients = 8
	}
	matrixFanout := max(2, o.cluster.Fanout)
	matrixTransport := o.cluster.Transport
	fmt.Printf("building live cluster: %d peers, %d items, fanout %d, transport %s ...\n", o.cluster.Peers, o.cluster.Items, matrixFanout, matrixTransport)
	cluster, keys, stop, err := driver.BuildCluster(o.cluster)
	if err != nil {
		fatal(err)
	}
	defer stop()

	base := driver.Config{
		Clients: o.clients,
		Ops:     o.ops,
		Keys:    keys,
		Seed:    o.cluster.Seed,
	}
	with := func(mut func(*driver.Config)) driver.Config {
		cfg := base
		mut(&cfg)
		return cfg
	}
	churn := max(1, o.cluster.Peers/8)
	// The quiesced comparisons run first; the churn and faultload cells
	// mutate the composition, so they close the shared-cluster matrix.
	cases := []benchCase{
		{"get-overlay", 3, with(func(c *driver.Config) { c.GetFraction = 1 })},
		{"get-direct", 3, with(func(c *driver.Config) { c.GetFraction = 1; c.Route = p2p.RouteDirect })},
		{"put-overlay", 3, with(func(c *driver.Config) { c.PutFraction = 1 })},
		{"put-direct", 3, with(func(c *driver.Config) { c.PutFraction = 1; c.Route = p2p.RouteDirect })},
		{"bulkput-64", 1, with(func(c *driver.Config) { c.PutFraction = 1; c.BulkSize = 64 })},
		{"range-serial", 1, with(func(c *driver.Config) {
			c.RangeFraction = 1
			c.RangeSelectivity = 0.05
			c.Plan = driver.PlanSerial
			c.Ops = max(1, o.ops/10) // serial chains are ~linear in covered peers
		})},
		{"range-parallel", 1, with(func(c *driver.Config) {
			c.RangeFraction = 1
			c.RangeSelectivity = 0.05
			c.Ops = max(1, o.ops/10)
		})},
		{"mixed-direct-churn", 1, with(func(c *driver.Config) {
			c.GetFraction, c.PutFraction, c.RangeFraction = 0.7, 0.2, 0.1
			c.Route = p2p.RouteDirect
			c.JoinPeers, c.DepartPeers = churn, churn
		})},
		{"mixed-direct-faultload", 1, with(func(c *driver.Config) {
			c.GetFraction, c.PutFraction, c.RangeFraction = 0.7, 0.2, 0.1
			c.Route = p2p.RouteDirect
			c.KillPeers, c.RecoverPeers = churn, churn
		})},
	}
	if o.traceSample > 0 {
		// The traced twin of the get-direct gate cell, inserted right after
		// it (before the matrix mutates the composition) so the sampling
		// overhead comparison runs on the same quiesced cluster. Its
		// throughput is gated against the untraced row below.
		traced := benchCase{"get-direct-traced", 3, with(func(c *driver.Config) {
			c.GetFraction = 1
			c.Route = p2p.RouteDirect
			c.TraceSample = o.traceSample
		})}
		cases = append(cases[:2], append([]benchCase{traced}, cases[2:]...)...)
	}

	// Warm both routing paths (scheduler, allocator, reply-channel pool) so
	// the first measured cell does not absorb the cold-start cost.
	driver.Run(cluster, with(func(c *driver.Config) { c.GetFraction = 1; c.Ops = 500 }))
	driver.Run(cluster, with(func(c *driver.Config) { c.GetFraction = 1; c.Ops = 500; c.Route = p2p.RouteDirect }))

	report := benchReport{
		Peers:      o.cluster.Peers,
		Items:      o.cluster.Items,
		Clients:    o.clients,
		OpsPerCase: o.ops,
		Seed:       o.cluster.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("%-24s %-8s %12s %10s %10s %10s %12s %10s\n",
		"case", "route", "ops/sec", "p50 µs", "p99 µs", "msgs/op", "allocs/op", "imbalance")
	byName := map[string]benchResult{}
	var mem runtime.MemStats
	measure := func(c *p2p.Cluster, cfg driver.Config) benchResult {
		staleBefore := c.StaleRoutes()
		msgsBefore := c.Messages()
		runtime.GC()
		runtime.ReadMemStats(&mem)
		mallocsBefore := mem.Mallocs
		rep := driver.Run(c, cfg)
		runtime.ReadMemStats(&mem)
		msgs := c.Messages() - msgsBefore
		res := benchResult{
			Route:          cfg.Route.String(),
			Ops:            rep.Ops,
			Errors:         rep.Errors,
			OpsPerSec:      rep.OpsPerSec,
			P50us:          rep.Latency[driver.OpAll].Percentile(0.50),
			P99us:          rep.Latency[driver.OpAll].Percentile(0.99),
			HopsP50:        rep.HopsP50,
			HopsP99:        rep.HopsP99,
			QueueWaitP99us: rep.QueueWaitP99us,
			StaleRoutes:    c.StaleRoutes() - staleBefore,
			PlanSerial:     rep.PlanSerial,
			PlanParallel:   rep.PlanParallel,
		}
		if rep.Ops > 0 {
			// Whole-process deltas: peer-side message handling and replication
			// are part of an operation's true cost, so they belong in the
			// per-op numbers the baseline tracks.
			res.MsgsPerOp = float64(msgs) / float64(rep.Ops)
			res.AllocsPerOp = float64(mem.Mallocs-mallocsBefore) / float64(rep.Ops)
		}
		return res
	}
	record := func(res benchResult) {
		if res.Transport == "" {
			res.Transport = matrixTransport
		}
		report.Results = append(report.Results, res)
		byName[res.Name] = res
		imb := "-"
		if res.Imbalance > 0 {
			imb = fmt.Sprintf("%.2f", res.Imbalance)
		}
		fmt.Printf("%-24s %-8s %12.0f %10.0f %10.0f %10.2f %12.1f %10s\n",
			res.Name, res.Route, res.OpsPerSec, res.P50us, res.P99us, res.MsgsPerOp, res.AllocsPerOp, imb)
	}
	for _, bc := range cases {
		var best benchResult
		for rep := 0; rep < max(bc.reps, 1); rep++ {
			res := measure(cluster, bc.cfg)
			if rep == 0 || res.OpsPerSec > best.OpsPerSec {
				best = res
			}
		}
		best.Name = bc.name
		best.Fanout = matrixFanout
		record(best)
	}

	// The loopback-TCP column: the serialization-sensitive cells (direct
	// singletons, batched puts, both range plans) re-run on a fresh
	// loopback wire pair, so the baseline tracks the codec and wire cost
	// next to the in-process rows. Skipped when the whole matrix already
	// ran over tcp.
	if matrixTransport == "local" {
		runTCPColumn(o, measure, record)
	}

	// The skew cells: a Zipf(1.0) data set and key stream, balancer off vs
	// on, each on its own freshly built cluster so the imbalance ratios are
	// directly comparable (the shared matrix cluster has uniform data, and
	// the balancer cannot be un-started once on). Best-of-3 like the gate
	// cells — the off-vs-on throughput comparison is the row's point, and a
	// single sub-second run is noisier than the effect it measures.
	for _, skew := range []struct {
		name        string
		autobalance bool
	}{{"zipf1.0-nobalance", false}, {"zipf1.0-autobalance", true}} {
		var best benchResult
		for rep := 0; rep < 3; rep++ {
			spec := o.fresh(7)
			spec.ZipfTheta = 1.0
			sc, skeys, scStop, err := driver.BuildCluster(spec)
			if err != nil {
				fatal(err)
			}
			cfg := driver.Config{
				Clients:      o.clients,
				Ops:          o.ops,
				Keys:         skeys,
				Seed:         o.cluster.Seed,
				GetFraction:  0.7,
				PutFraction:  0.3,
				Route:        p2p.RouteDirect,
				Distribution: workload.Zipf,
				ZipfTheta:    1.0,
				AutoBalance:  skew.autobalance,
			}
			res := measure(sc, cfg)
			if skew.autobalance {
				// Quiesce the balancer so the recorded ratio is its converged
				// result, not a race against the last ticker fire.
				if _, err := sc.BalanceUntilStable(p2p.AutoBalanceConfig{}, 8*o.cluster.Peers); err != nil {
					fatal(err)
				}
			}
			imb, err := sc.ImbalanceRatio()
			if err != nil {
				fatal(err)
			}
			res.Imbalance = imb
			res.Rebalanced = sc.BalanceEvents()
			scStop()
			if rep == 0 || res.OpsPerSec > best.OpsPerSec {
				best = res
			}
		}
		best.Name = skew.name
		best.Fanout = matrixFanout
		record(best)
	}

	// The sweep's gate is deferred until after the JSON write below, so a
	// red sweep still leaves the rows behind for triage.
	planGate := runPlanSweep(o, measure, record)

	if o.compareOverlays {
		runOverlayComparison(o, measure, record)
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("baseline written to %s\n", o.out)
	writeObsDump(cluster, o.metricsOut)

	planGate()

	if o.traceSample > 0 {
		// Sampling must be close to free: gate the traced direct-get row at
		// the same noise margin the speedup gate uses (≥95% of untraced
		// throughput, i.e. <5% overhead, best of 3 each).
		traced, untraced := byName["get-direct-traced"], byName["get-direct"]
		if untraced.OpsPerSec <= 0 {
			fatal(fmt.Errorf("trace-overhead gate: get-direct measured no throughput"))
		}
		ratio := traced.OpsPerSec / untraced.OpsPerSec
		fmt.Printf("trace sampling overhead (1-in-%d): get-direct-traced at %.2fx of get-direct (best of 3)\n", o.traceSample, ratio)
		if ratio < gateMargin {
			fatal(fmt.Errorf("trace-overhead gate FAILED: 1-in-%d sampling cut direct-get throughput to %.2fx, required ≥ %.2fx",
				o.traceSample, ratio, gateMargin))
		}
		fmt.Printf("trace-overhead gate passed (required ≥ %.2fx)\n", gateMargin)
	}

	if o.requireSpeedup > 0 {
		for _, pair := range [][2]string{{"get-direct", "get-overlay"}, {"put-direct", "put-overlay"}} {
			direct, overlay := byName[pair[0]], byName[pair[1]]
			if overlay.OpsPerSec <= 0 {
				fatal(fmt.Errorf("bench gate: %s measured no throughput", pair[1]))
			}
			speedup := direct.OpsPerSec / overlay.OpsPerSec
			fmt.Printf("speedup %s vs %s: %.2fx (best of 3)\n", pair[0], pair[1], speedup)
			if speedup < o.requireSpeedup*gateMargin {
				fatal(fmt.Errorf("bench gate FAILED: %s is %.2fx of %s, required ≥ %.2fx (×%.2f noise margin)",
					pair[0], speedup, pair[1], o.requireSpeedup, gateMargin))
			}
		}
		fmt.Printf("bench gate passed (required ≥ %.2fx with ×%.2f margin, best of 3)\n", o.requireSpeedup, gateMargin)
	}
}

// runPlanSweep is the range-plan selectivity sweep of the bench matrix: a
// range-only workload at three selectivities — narrow (≈1 peer per range),
// mid (≈25% of the peers) and wide (the whole domain) — each answered by
// the serial chain walk, the parallel scatter and the adaptive planner, on
// a fresh quiesced cluster (the shared matrix cluster has churned by the
// time the sweep runs). The sweep is the adaptive layer's contract, and it
// gates itself: in every cell adaptive must reach at least gateMargin of
// the better fixed plan's throughput — a planner that guesses wrong
// anywhere shows up as a big per-cell loss — and it must strictly beat
// each fixed plan somewhere (serial on wide ranges, parallel on narrow
// ones), or the layer is overhead with no payoff. The measurements run
// now; the returned closure evaluates the gate, deferred by the caller
// until after the baseline JSON is on disk so a red sweep still leaves
// its rows behind.
func runPlanSweep(o benchOptions, measure func(*p2p.Cluster, driver.Config) benchResult, record func(benchResult)) func() {
	fmt.Printf("--- range-plan selectivity sweep (serial vs parallel vs adaptive, %d peers) ---\n", o.cluster.Peers)
	spec := o.fresh(23)
	spec.Transport = "local"
	c, keys, stop, err := driver.BuildCluster(spec)
	if err != nil {
		fatal(err)
	}
	defer stop()
	cells := []struct {
		name string
		sel  float64
	}{
		{"narrow", 1.0 / float64(max(1, o.cluster.Peers))},
		{"mid", 0.25},
		{"wide", 1.0},
	}
	plans := []string{driver.PlanSerial, driver.PlanParallel, driver.PlanAdaptive}
	type cellKey struct{ cell, plan string }
	results := map[cellKey]benchResult{}
	opsPerCell := max(1, o.ops/10) // ranges cost ~peer-span messages each
	for _, cell := range cells {
		base := driver.Config{
			Clients:          o.clients,
			Ops:              opsPerCell,
			Keys:             keys,
			Seed:             o.cluster.Seed,
			RangeFraction:    1,
			RangeSelectivity: cell.sel,
		}
		for _, plan := range plans {
			cfg := base
			cfg.Plan = plan
			var best benchResult
			for rep := 0; rep < 3; rep++ {
				res := measure(c, cfg)
				if rep == 0 || res.OpsPerSec > best.OpsPerSec {
					best = res
				}
			}
			best.Name = fmt.Sprintf("sweep-%s-%s", cell.name, plan)
			best.Fanout = max(2, o.cluster.Fanout)
			record(best)
			results[cellKey{cell.name, plan}] = best
		}
	}

	return func() {
		beatsSerial, beatsParallel := false, false
		for _, cell := range cells {
			ser := results[cellKey{cell.name, driver.PlanSerial}]
			par := results[cellKey{cell.name, driver.PlanParallel}]
			ada := results[cellKey{cell.name, driver.PlanAdaptive}]
			betterFixed := max(ser.OpsPerSec, par.OpsPerSec)
			if betterFixed <= 0 {
				fatal(fmt.Errorf("plan-sweep gate: %s cell measured no throughput", cell.name))
			}
			ratio := ada.OpsPerSec / betterFixed
			fmt.Printf("sweep %s: adaptive at %.2fx of the better fixed plan (serial %.0f, parallel %.0f, adaptive %.0f ops/sec)\n",
				cell.name, ratio, ser.OpsPerSec, par.OpsPerSec, ada.OpsPerSec)
			if ratio < gateMargin {
				fatal(fmt.Errorf("plan-sweep gate FAILED: adaptive is %.2fx of the better fixed plan in the %s cell, required ≥ %.2fx",
					ratio, cell.name, gateMargin))
			}
			if ada.OpsPerSec > ser.OpsPerSec {
				beatsSerial = true
			}
			// Against parallel the win shows either as throughput or as tail
			// latency (narrow ranges served serially skip the scatter's
			// fan-out tail).
			if ada.OpsPerSec > par.OpsPerSec || (ada.P99us > 0 && par.P99us > 0 && ada.P99us < par.P99us) {
				beatsParallel = true
			}
		}
		if !beatsSerial || !beatsParallel {
			fatal(fmt.Errorf("plan-sweep gate FAILED: adaptive strictly beat serial in some cell: %v, parallel in some cell: %v (want both)",
				beatsSerial, beatsParallel))
		}
		fmt.Printf("plan-sweep gate passed: adaptive ≥ %.2fx of the better fixed plan in every cell and strictly better in at least one\n", gateMargin)
	}
}

// runOverlayComparison is the -compareoverlays half of the bench matrix: the
// same overlay-routed get workload over freshly built clusters at fanout 2
// (binary BATON), 4 and 8 (BATON*), plus a Chord ring of the same size
// answering the same number of exact-match lookups. The rows make the
// paper-level claim measurable in one file: overlay hops fall from log2 N
// towards log_m N as the fanout grows, and Chord's ring hops bracket the
// binary tree from the other side. The section gates itself: m=8 must beat
// binary on hops_p50, or the whole point of BATON* has regressed.
func runOverlayComparison(o benchOptions, measure func(*p2p.Cluster, driver.Config) benchResult, record func(benchResult)) {
	fmt.Printf("--- three-way overlay comparison (binary vs BATON* vs Chord, %d peers) ---\n", o.cluster.Peers)
	hopsP50 := map[int]float64{}
	for _, m := range []int{2, 4, 8} {
		spec := o.fresh(13)
		spec.Fanout, spec.Transport = m, "local"
		c, keys, stop, err := driver.BuildCluster(spec)
		if err != nil {
			fatal(err)
		}
		cfg := driver.Config{
			Clients:     o.clients,
			Ops:         o.ops,
			Keys:        keys,
			Seed:        o.cluster.Seed,
			GetFraction: 1,
		}
		// Warm the fresh cluster so the row measures routing, not cold-start.
		warm := cfg
		warm.Ops = 500
		driver.Run(c, warm)
		var best benchResult
		for rep := 0; rep < 3; rep++ {
			res := measure(c, cfg)
			if rep == 0 || res.OpsPerSec > best.OpsPerSec {
				best = res
			}
		}
		stop()
		best.Name = fmt.Sprintf("overlay-get-m%d", m)
		best.Fanout = m
		hopsP50[m] = best.HopsP50
		record(best)
	}

	// The Chord cell: a message-counting simulator, not a live cluster, so
	// only the hop and message columns are comparable; latency and ops/sec
	// reflect simulator speed and are left at their measured values.
	ring := chord.NewRing(chord.Config{Seed: o.cluster.Seed + 13})
	for ring.Size() < o.cluster.Peers {
		if _, _, err := ring.Join(ring.RandomNode()); err != nil {
			fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(o.cluster.Seed + 17))
	gen := workload.NewGenerator(workload.Config{Seed: o.cluster.Seed + 13})
	keys := make([]keyspace.Key, o.cluster.Items)
	for i := range keys {
		keys[i] = gen.NextKey()
		if _, err := ring.Insert(ring.RandomNode(), keys[i]); err != nil {
			fatal(err)
		}
	}
	hops := &stats.Latency{}
	var msgs int64
	for i := 0; i < o.ops; i++ {
		_, cost, err := ring.Lookup(ring.RandomNode(), keys[rng.Intn(len(keys))])
		if err != nil {
			fatal(err)
		}
		hops.Add(float64(cost.Messages))
		msgs += int64(cost.Messages)
	}
	res := benchResult{
		Name:      "chord-get",
		Route:     "chord",
		Ops:       int64(o.ops),
		MsgsPerOp: float64(msgs) / float64(o.ops),
		HopsP50:   hops.Percentile(0.50),
		HopsP99:   hops.Percentile(0.99),
	}
	record(res)

	fmt.Printf("overlay hops p50: binary %.0f, m=4 %.0f, m=8 %.0f, chord %.0f\n",
		hopsP50[2], hopsP50[4], hopsP50[8], res.HopsP50)
	if hopsP50[8] >= hopsP50[2] {
		fatal(fmt.Errorf("overlay comparison gate FAILED: BATON* m=8 hops_p50 %.1f not below binary %.1f",
			hopsP50[8], hopsP50[2]))
	}
	fmt.Println("overlay comparison gate passed: m=8 routes in strictly fewer hops than binary")
}

// runTCPColumn re-measures the serialization-sensitive matrix cells over a
// fresh loopback-TCP pair (coordinator + in-process daemon half): direct
// gets and puts, batched bulk puts and both range plans. The rows land in
// the baseline with transport "tcp" and a "-tcp" name suffix, so diffs
// track codec and wire cost cell by cell against the local rows. No gates:
// the wire column is a trajectory, not a floor — loopback throughput is at
// the mercy of the kernel's socket paths in a way the in-process rows are
// not.
func runTCPColumn(o benchOptions, measure func(*p2p.Cluster, driver.Config) benchResult, record func(benchResult)) {
	spec := o.fresh(31)
	spec.Transport = "tcp"
	c, keys, stop, err := driver.BuildCluster(spec)
	if err != nil {
		fatal(err)
	}
	defer stop()
	base := driver.Config{
		Clients: o.clients,
		Ops:     o.ops,
		Keys:    keys,
		Seed:    o.cluster.Seed,
	}
	with := func(mut func(*driver.Config)) driver.Config {
		cfg := base
		mut(&cfg)
		return cfg
	}
	// Warm the wire path (connection setup, route cache) like the local
	// matrix warms the schedulers.
	driver.Run(c, with(func(cfg *driver.Config) { cfg.GetFraction = 1; cfg.Ops = 500; cfg.Route = p2p.RouteDirect }))
	cells := []benchCase{
		{"get-direct-tcp", 3, with(func(cfg *driver.Config) { cfg.GetFraction = 1; cfg.Route = p2p.RouteDirect })},
		{"put-direct-tcp", 3, with(func(cfg *driver.Config) { cfg.PutFraction = 1; cfg.Route = p2p.RouteDirect })},
		{"bulkput-64-tcp", 1, with(func(cfg *driver.Config) { cfg.PutFraction = 1; cfg.BulkSize = 64 })},
		{"range-serial-tcp", 1, with(func(cfg *driver.Config) {
			cfg.RangeFraction = 1
			cfg.RangeSelectivity = 0.05
			cfg.Plan = driver.PlanSerial
			cfg.Ops = max(1, o.ops/10)
		})},
		{"range-parallel-tcp", 1, with(func(cfg *driver.Config) {
			cfg.RangeFraction = 1
			cfg.RangeSelectivity = 0.05
			cfg.Ops = max(1, o.ops/10)
		})},
	}
	for _, bc := range cells {
		var best benchResult
		for rep := 0; rep < max(bc.reps, 1); rep++ {
			res := measure(c, bc.cfg)
			if rep == 0 || res.OpsPerSec > best.OpsPerSec {
				best = res
			}
		}
		best.Name = bc.name
		best.Fanout = max(2, o.cluster.Fanout)
		best.Transport = "tcp"
		record(best)
	}
}
