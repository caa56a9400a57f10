// Command batonsim reproduces the evaluation of the BATON paper and drives
// the live cluster. In the default figures mode it runs the experiment
// behind each panel of Figure 8 and prints the resulting series as aligned
// text tables (one row per x value, one column per plotted line). The
// throughput mode runs the closed-loop concurrent workload driver against a
// live goroutine-per-peer cluster and reports ops/sec plus latency
// percentiles; the churnload and faultload modes run the same workload
// under membership churn and under crash-and-repair faults respectively,
// ending with invariant audits; the skewload mode drives a Zipf-skewed
// data set and key stream at the cluster, optionally with the background
// load balancer shedding the skew (-autobalance), and reports the
// max/average load-imbalance ratio (-compare gates balancer-on against
// balancer-off); the rangecmp mode benchmarks the parallel range fan-out
// against the sequential adjacent-chain walk; the bench mode runs the
// fixed performance matrix (overlay vs direct routing, bulk, serial vs
// parallel range, throughput under churn, faults and skew) and writes the
// tracked baseline BENCH_p2p.json.
//
// Usage:
//
//	batonsim                  # run every figure at the quick (seconds) scale
//	batonsim -figure 8d       # run a single figure
//	batonsim -full            # paper-scale parameters (1,000–10,000 peers)
//	batonsim -sizes 500,1000  # custom network sizes
//	batonsim -list            # list the reproducible figures
//	batonsim -mode throughput -peers 256 -clients 32 -ops 50000 -kill 10 -route direct
//	batonsim -mode churnload -peers 128 -joins 32 -departs 32 -ops 50000
//	batonsim -mode faultload -peers 128 -kill 16 -recover 16 -ops 50000
//	batonsim -mode skewload -peers 64 -theta 1.0 -autobalance -compare
//	batonsim -mode rangecmp -peers 256 -selectivity 0.15
//	batonsim -mode rangecmp -peers 64 -plan adaptive -rangedist bimodal
//	batonsim -mode bench -peers 64 -requirespeedup 1.0
//	batonsim -mode throughput -peers 64 -fanout 4        # BATON* overlay, m-ary tree
//	batonsim -mode bench -peers 64 -compareoverlays      # binary vs BATON* m=4/8 vs Chord
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"baton/internal/core"
	"baton/internal/experiments"
	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/workload"
	"baton/internal/workload/driver"
)

// buildScenarioCluster builds a scenario's live cluster over the selected
// transport: in-process channels ("local") or a loopback-TCP pair ("tcp",
// coordinator plus a daemon half hosting half the peers, so every
// cross-half message crosses the wire). The returned stop function
// replaces Cluster.Stop — over tcp it tears down the daemon half too.
func buildScenarioCluster(transport, listen string, peers, items int, seed int64, dist workload.Distribution, theta float64, fanout int) (*p2p.Cluster, []keyspace.Key, func(), error) {
	if transport == "tcp" {
		c, stop, keys, err := driver.BuildClusterTCPDistFanout(peers, items, seed, dist, theta, fanout, listen)
		return c, keys, stop, err
	}
	c, keys, err := driver.BuildClusterDistFanout(peers, items, seed, dist, theta, fanout)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, keys, c.Stop, nil
}

func main() {
	var (
		mode    = flag.String("mode", "figures", "figures, throughput, churnload, faultload, skewload, rangecmp or bench")
		figure  = flag.String("figure", "", "figure to reproduce (8a..8i); empty means all")
		full    = flag.Bool("full", false, "use the paper-scale parameters (slow: tens of minutes)")
		list    = flag.Bool("list", false, "list reproducible figures and exit")
		sizes   = flag.String("sizes", "", "comma-separated network sizes overriding the defaults")
		queries = flag.Int("queries", 0, "queries per measurement (0 = default)")
		data    = flag.Int("data", 0, "data items per peer (0 = default)")
		runs    = flag.Int("runs", 0, "independent repetitions to average (0 = default)")
		seed    = flag.Int64("seed", 1, "random seed")
		verbose = flag.Bool("v", false, "print the notes recorded for each figure")

		// Live-cluster flags (throughput and rangecmp modes).
		peers       = flag.Int("peers", 256, "live cluster size")
		items       = flag.Int("items", 20_000, "items pre-loaded into the cluster")
		clients     = flag.Int("clients", 32, "concurrent client goroutines")
		ops         = flag.Int("ops", 20_000, "total operations across all clients")
		getFrac     = flag.Float64("get", 0.7, "fraction of get operations")
		putFrac     = flag.Float64("put", 0.2, "fraction of put operations")
		delFrac     = flag.Float64("del", 0, "fraction of delete operations")
		rangeFrac   = flag.Float64("range", 0.1, "fraction of range operations")
		selectivity = flag.Float64("selectivity", 0.01, "range query selectivity (fraction of the domain)")
		fanout      = flag.Int("fanout", 2, "overlay tree fanout m (2 = binary BATON, >2 = BATON*)")
		kill        = flag.Int("kill", 0, "peers to kill while the workload runs")
		joins       = flag.Int("joins", 0, "peers that join online while the workload runs (churnload mode)")
		departs     = flag.Int("departs", 0, "peers that depart gracefully while the workload runs (churnload mode)")
		recovers    = flag.Int("recover", -1, "crash repairs to run while the workload runs (faultload mode; -1 means match -kill)")
		plan        = flag.String("plan", "", "range execution plan: serial, parallel or adaptive (rangecmp default: compare all three)")
		rangeDist   = flag.String("rangedist", "", "range width distribution around -selectivity: fixed, uniform or bimodal")
		bulkSize    = flag.Int("bulk", 0, "batch puts through BulkPut in groups of this size (0 = singleton puts)")
		rcQueries   = flag.Int("queries-rangecmp", 200, "range queries per mode in rangecmp mode")
		route       = flag.String("route", "overlay", "singleton routing mode: overlay (paper-faithful per-hop) or direct (one-hop route cache)")

		// Wire-transport flags (workload and bench modes).
		transport = flag.String("transport", "local", "message transport for live-cluster modes: local (in-process channels) or tcp (a loopback wire pair: coordinator + daemon half)")
		listen    = flag.String("listen", "", "tcp transport: the coordinator's listen address (default 127.0.0.1:0, a free loopback port)")
		seedAddr  = flag.String("seedaddr", "", "tcp transport, throughput mode: attach to a running batond coordinator at this address instead of building a cluster in-process")

		// Skewload-mode flags.
		theta       = flag.Float64("theta", 1.0, "skewload mode: Zipf skew parameter of the data set and key stream")
		autobalance = flag.Bool("autobalance", false, "skewload mode: run the background load balancer during the workload")
		compare     = flag.Bool("compare", false, "skewload mode: run balancer-off then balancer-on and fail unless the final imbalance ratio improves")

		// Bench-mode flags.
		benchOut        = flag.String("out", "BENCH_p2p.json", "bench mode: file the benchmark baseline is written to")
		requireSpeedup  = flag.Float64("requirespeedup", 0, "bench mode: fail unless direct-mode singleton ops/sec exceeds overlay-mode by this factor (0 = no gate)")
		compareOverlays = flag.Bool("compareoverlays", false, "bench mode: add the three-way overlay cells (binary BATON vs BATON* m=4/m=8 vs Chord) to the matrix")

		// Flight-recorder flags (workload and bench modes).
		traceSample = flag.Int("tracesample", 0, "sample 1 in N requests for hop-level tracing (0 = off); in bench mode also gates the sampling overhead on the direct-get row")
		metricsOut  = flag.String("metricsout", "", "write the flight-recorder dump (metrics registry, structural-op journal, sampled traces) to this JSON file after the run")
	)
	flag.Parse()
	if err := validateModeFlags(*mode); err != nil {
		fatal(err)
	}
	routeMode, err := parseRoute(*route)
	if err != nil {
		fatal(err)
	}
	if !core.ValidFanout(*fanout) {
		fatal(fmt.Errorf("invalid -fanout %d (want 2..%d)", *fanout, core.MaxFanout))
	}
	// Flags the user set explicitly, so "-kill 0" (an intentional no-crash
	// baseline) is distinguishable from an unset flag and never silently
	// overridden by a mode's default churn.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := validateTransportFlags(*transport, *listen, *seedAddr, explicit); err != nil {
		fatal(err)
	}

	switch *mode {
	case "figures":
	case "throughput":
		runThroughput(throughputOptions{
			peers: *peers, items: *items, clients: *clients, ops: *ops,
			getFrac: *getFrac, putFrac: *putFrac, delFrac: *delFrac, rangeFrac: *rangeFrac,
			selectivity: *selectivity, kill: *kill,
			plan: *plan, rangeDist: *rangeDist,
			bulkSize: *bulkSize, route: routeMode, seed: *seed, fanout: *fanout,
			traceSample: *traceSample, metricsOut: *metricsOut,
			transport: *transport, listen: *listen, seedAddr: *seedAddr,
		})
		return
	case "bench":
		runBench(benchOptions{
			peers: *peers, items: *items, clients: *clients, ops: *ops,
			seed: *seed, out: *benchOut, requireSpeedup: *requireSpeedup,
			fanout: *fanout, compareOverlays: *compareOverlays,
			traceSample: *traceSample, metricsOut: *metricsOut,
			transport: *transport, listen: *listen,
		})
		return
	case "churnload":
		o := churnloadOptions{
			peers: *peers, items: *items, clients: *clients, ops: *ops,
			getFrac: *getFrac, putFrac: *putFrac, delFrac: *delFrac, rangeFrac: *rangeFrac,
			selectivity: *selectivity, joins: *joins, departs: *departs, kill: *kill,
			route: routeMode, seed: *seed, fanout: *fanout,
			traceSample: *traceSample, metricsOut: *metricsOut,
			transport: *transport, listen: *listen,
		}
		if !explicit["joins"] && !explicit["departs"] && !explicit["kill"] {
			// No churn flags at all: default to steady-state churn turning
			// over ~1/4 of the cluster (at least one event each, so tiny
			// clusters still churn). Explicitly requested values — zero
			// included — are left exactly as given.
			o.joins, o.departs = max(1, *peers/4), max(1, *peers/4)
		}
		runChurnLoad(o)
		return
	case "faultload":
		o := faultloadOptions{
			peers: *peers, items: *items, clients: *clients, ops: *ops,
			getFrac: *getFrac, putFrac: *putFrac, delFrac: *delFrac, rangeFrac: *rangeFrac,
			selectivity: *selectivity, kill: *kill, recovers: *recovers,
			route: routeMode, seed: *seed, fanout: *fanout,
			traceSample: *traceSample, metricsOut: *metricsOut,
			transport: *transport, listen: *listen,
		}
		if !explicit["kill"] {
			// -kill not given: default to crashing (and repairing) ~1/4 of
			// the cluster, at least one peer, so the mode exercises the
			// kill -> ErrOwnerDown -> recover -> readable cycle out of the
			// box. An explicit "-kill 0" baseline is honoured as given.
			o.kill = max(1, *peers/4)
		}
		if o.recovers < 0 {
			o.recovers = o.kill
		}
		runFaultLoad(o)
		return
	case "skewload":
		runSkewLoad(skewloadOptions{
			peers: *peers, items: *items, clients: *clients, ops: *ops,
			getFrac: *getFrac, putFrac: *putFrac, delFrac: *delFrac, rangeFrac: *rangeFrac,
			selectivity: *selectivity, theta: *theta, autobalance: *autobalance,
			compare: *compare, route: routeMode, seed: *seed, fanout: *fanout,
			traceSample: *traceSample, metricsOut: *metricsOut,
			transport: *transport, listen: *listen,
		})
		return
	case "rangecmp":
		runRangeCompare(rangecmpOptions{
			peers: *peers, items: *items, queries: *rcQueries,
			selectivity: *selectivity, seed: *seed, fanout: *fanout,
			plan: *plan, rangeDist: *rangeDist,
		})
		return
	default:
		fatal(fmt.Errorf("unknown mode %q (want figures, throughput, churnload, faultload, skewload, rangecmp or bench)", *mode))
	}

	if *list {
		for _, id := range experiments.Figures() {
			fmt.Println(id)
		}
		return
	}

	opt := experiments.Quick()
	if *full {
		opt = experiments.Default()
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			fatal(err)
		}
		opt.Sizes = parsed
	}
	if *queries > 0 {
		opt.Queries = *queries
	}
	if *data > 0 {
		opt.DataPerNode = *data
	}
	if *runs > 0 {
		opt.Runs = *runs
	}
	opt.Seed = *seed

	ids := experiments.Figures()
	if *figure != "" {
		ids = []string{strings.TrimPrefix(strings.ToLower(*figure), "figure ")}
	}
	for _, id := range ids {
		result, err := experiments.Run(id, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("Figure %s — %s\n", result.ID, result.Title)
		fmt.Println(strings.Repeat("-", 72))
		fmt.Print(result.Table())
		if *verbose {
			for _, note := range result.Notes {
				fmt.Printf("note: %s\n", note)
			}
		}
		fmt.Println()
	}
}

// validateModeFlags rejects churn/fault flags in modes that would silently
// ignore them: a run that drops -kill or -joins on the floor looks like a
// clean pass of a scenario that never executed, which is worse than an
// error. Only flags the user set explicitly are checked.
func validateModeFlags(mode string) error {
	workloadModes := map[string]bool{"throughput": true, "churnload": true, "faultload": true, "skewload": true}
	allowed := map[string]map[string]bool{
		"throughput": {"kill": true, "route": true, "bulk": true, "plan": true, "rangedist": true, "tracesample": true, "metricsout": true, "transport": true, "listen": true},
		"churnload":  {"kill": true, "joins": true, "departs": true, "route": true, "tracesample": true, "metricsout": true, "transport": true, "listen": true},
		"faultload":  {"kill": true, "recover": true, "route": true, "tracesample": true, "metricsout": true, "transport": true, "listen": true},
		"skewload":   {"theta": true, "autobalance": true, "compare": true, "route": true, "tracesample": true, "metricsout": true, "transport": true, "listen": true},
		"bench":      {"out": true, "requirespeedup": true, "compareoverlays": true, "tracesample": true, "metricsout": true, "transport": true, "listen": true},
	}
	var bad []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "kill", "joins", "departs", "recover", "route", "out", "requirespeedup",
			"theta", "autobalance", "compare", "compareoverlays", "bulk",
			"tracesample", "metricsout", "transport", "listen":
			if !allowed[mode][f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		case "seedaddr":
			if mode != "throughput" {
				bad = append(bad, "-"+f.Name)
			}
		case "get", "put", "del", "range":
			// The mix fractions are honoured by every workload mode; bench,
			// rangecmp and figures run fixed mixes and would silently drop
			// them.
			if !workloadModes[mode] {
				bad = append(bad, "-"+f.Name)
			}
		case "selectivity":
			if !workloadModes[mode] && mode != "rangecmp" {
				bad = append(bad, "-"+f.Name)
			}
		case "plan", "rangedist":
			// The range plan and width distribution shape the throughput
			// workload's range mix and the rangecmp comparison; everywhere
			// else they would be silently dropped.
			if !allowed[mode][f.Name] && mode != "rangecmp" {
				bad = append(bad, "-"+f.Name)
			}
		case "fanout":
			// The overlay fanout shapes every live-cluster mode and the bench
			// matrix; the figures mode runs its own per-figure parameter sets.
			if !workloadModes[mode] && mode != "rangecmp" && mode != "bench" {
				bad = append(bad, "-"+f.Name)
			}
		}
	})
	if len(bad) == 0 {
		return nil
	}
	workloads := []string{"throughput", "churnload", "faultload", "skewload"}
	modes := map[string][]string{
		"kill":            {"throughput", "churnload", "faultload"},
		"joins":           {"churnload"},
		"departs":         {"churnload"},
		"recover":         {"faultload"},
		"route":           workloads,
		"out":             {"bench"},
		"requirespeedup":  {"bench"},
		"compareoverlays": {"bench"},
		"fanout":          append(append([]string{}, workloads...), "rangecmp", "bench"),
		"theta":           {"skewload"},
		"autobalance":     {"skewload"},
		"compare":         {"skewload"},
		"bulk":            {"throughput"},
		"plan":            {"throughput", "rangecmp"},
		"rangedist":       {"throughput", "rangecmp"},
		"tracesample":     append(append([]string{}, workloads...), "bench"),
		"metricsout":      append(append([]string{}, workloads...), "bench"),
		"transport":       append(append([]string{}, workloads...), "bench"),
		"listen":          append(append([]string{}, workloads...), "bench"),
		"seedaddr":        {"throughput"},
		"get":             workloads,
		"put":             workloads,
		"del":             workloads,
		"range":           workloads,
		"selectivity":     append(append([]string{}, workloads...), "rangecmp"),
	}
	hints := make([]string, 0, len(bad))
	for _, f := range bad {
		hints = append(hints, fmt.Sprintf("%s (only meaningful in mode %s)", f, strings.Join(modes[strings.TrimPrefix(f, "-")], "/")))
	}
	return fmt.Errorf("mode %q ignores flag(s) %s; drop them or switch mode", mode, strings.Join(hints, ", "))
}

// validateTransportFlags enforces the wire-transport flag combinations:
// -transport names a known medium, -listen and -seedaddr only mean
// something over tcp, and -seedaddr (attach to an external coordinator)
// excludes both -listen (we are not the coordinator) and churn flags
// (structural operations are the coordinator's alone). Like
// validateModeFlags, a bad combination exits 1 instead of being silently
// dropped.
func validateTransportFlags(transport, listen, seedAddr string, explicit map[string]bool) error {
	switch transport {
	case "local", "tcp":
	default:
		return fmt.Errorf("unknown -transport %q (want local or tcp)", transport)
	}
	if transport != "tcp" {
		if listen != "" {
			return fmt.Errorf("-listen requires -transport tcp")
		}
		if seedAddr != "" {
			return fmt.Errorf("-seedaddr requires -transport tcp")
		}
		return nil
	}
	if seedAddr != "" {
		if listen != "" {
			return fmt.Errorf("-seedaddr and -listen are mutually exclusive: attaching to a coordinator at %s means not listening as one", seedAddr)
		}
		for _, churn := range []string{"kill", "joins", "departs", "recover", "autobalance"} {
			if explicit[churn] {
				return fmt.Errorf("-%s cannot be combined with -seedaddr: structural operations belong to the coordinator, and an attached client is not one", churn)
			}
		}
	}
	return nil
}

// parseRoute maps the -route flag to a routing mode.
func parseRoute(s string) (p2p.RouteMode, error) {
	switch s {
	case "overlay":
		return p2p.RouteOverlay, nil
	case "direct":
		return p2p.RouteDirect, nil
	}
	return p2p.RouteOverlay, fmt.Errorf("unknown route mode %q (want overlay or direct)", s)
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("invalid network size %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "batonsim:", err)
	os.Exit(1)
}
