// Command batonsim reproduces the evaluation of the BATON paper and drives
// the live cluster. It has three modes:
//
//   - figures (the default) runs the experiment behind each panel of
//     Figure 8 and prints the resulting series as aligned text tables (one
//     row per x value, one column per plotted line).
//   - run builds a live goroutine-per-peer cluster, drives the closed-loop
//     concurrent workload at it and reports ops/sec plus latency
//     percentiles. The flags pick the scenario: steady traffic, online joins
//     and graceful departures (-joins, -departs), crashes and repairs
//     (-kill, -recover), and Zipf-skewed data and keys (-theta) with the
//     background load balancer (-autobalance). Every run ends with an audit:
//     peers still dead are repaired, the structural and replication
//     invariants are checked, and the max/average load-imbalance ratio is
//     printed. -compare runs balancer-off then balancer-on and fails unless
//     the ratio drops. With -seedaddr the mode attaches to a running batond
//     coordinator instead of building a cluster and skips the audit.
//   - bench runs the fixed performance matrix (overlay vs direct routing,
//     bulk, the range plans, throughput under churn, faults and skew) and
//     writes the tracked baseline BENCH_p2p.json.
//
// Usage:
//
//	batonsim                  # run every figure at the quick (seconds) scale
//	batonsim -figure 8d       # run a single figure
//	batonsim -full            # paper-scale parameters (1,000–10,000 peers)
//	batonsim -sizes 500,1000  # custom network sizes
//	batonsim -list            # list the reproducible figures
//	batonsim -mode run -peers 256 -clients 32 -ops 50000 -kill 10 -route direct
//	batonsim -mode run -peers 128 -joins 32 -departs 32 -ops 50000
//	batonsim -mode run -peers 128 -kill 16 -recover 16 -ops 50000
//	batonsim -mode run -peers 64 -theta 1.0 -compare
//	batonsim -mode run -peers 64 -get 0 -put 0 -range 1 -plan adaptive -rangedist bimodal
//	batonsim -mode run -peers 64 -fanout 4               # BATON* overlay, m-ary tree
//	batonsim -mode bench -peers 64 -requirespeedup 1.0
//	batonsim -mode bench -peers 64 -compareoverlays      # binary vs BATON* m=4/8 vs Chord
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"baton/internal/core"
	"baton/internal/experiments"
	"baton/internal/p2p"
	"baton/internal/workload"
	"baton/internal/workload/driver"
)

func main() {
	var (
		mode    = flag.String("mode", "figures", "figures, run or bench")
		figure  = flag.String("figure", "", "figure to reproduce (8a..8i); empty means all")
		full    = flag.Bool("full", false, "use the paper-scale parameters (slow: tens of minutes)")
		list    = flag.Bool("list", false, "list reproducible figures and exit")
		sizes   = flag.String("sizes", "", "comma-separated network sizes overriding the defaults")
		queries = flag.Int("queries", 0, "queries per measurement (0 = default)")
		data    = flag.Int("data", 0, "data items per peer (0 = default)")
		runs    = flag.Int("runs", 0, "independent repetitions to average (0 = default)")
		seed    = flag.Int64("seed", 1, "random seed")
		verbose = flag.Bool("v", false, "print the notes recorded for each figure")

		// Live-cluster flags (run and bench modes).
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
		joins       = flag.Int("joins", 0, "peers that join online while the workload runs")
		departs     = flag.Int("departs", 0, "peers that depart gracefully while the workload runs")
		recovers    = flag.Int("recover", 0, "crash repairs to run while the workload runs")
		plan        = flag.String("plan", "", "range execution plan: serial, parallel or adaptive (default parallel)")
		rangeDist   = flag.String("rangedist", "", "range width distribution around -selectivity: fixed, uniform or bimodal")
		bulkSize    = flag.Int("bulk", 0, "batch puts through BulkPut in groups of this size (0 = singleton puts)")
		route       = flag.String("route", "overlay", "singleton routing mode: overlay (paper-faithful per-hop) or direct (one-hop route cache)")
		theta       = flag.Float64("theta", 0, "Zipf skew of the pre-loaded data and the key stream (0 = uniform)")
		autobalance = flag.Bool("autobalance", false, "run the background load balancer during the workload")
		compare     = flag.Bool("compare", false, "run balancer-off then balancer-on on fresh clusters and fail unless the final imbalance ratio drops")

		// Wire-transport flags (run and bench modes).
		transport = flag.String("transport", "local", "message transport: local (in-process channels) or tcp (a loopback wire pair: coordinator + daemon half)")
		listen    = flag.String("listen", "", "tcp transport: the coordinator's listen address (default 127.0.0.1:0, a free loopback port)")
		seedAddr  = flag.String("seedaddr", "", "tcp transport, run mode: attach to a running batond coordinator at this address instead of building a cluster (skips the audit)")

		// Bench-mode flags.
		benchOut        = flag.String("out", "BENCH_p2p.json", "bench mode: file the benchmark baseline is written to")
		requireSpeedup  = flag.Float64("requirespeedup", 0, "bench mode: fail unless direct-mode singleton ops/sec exceeds overlay-mode by this factor (0 = no gate)")
		compareOverlays = flag.Bool("compareoverlays", false, "bench mode: add the three-way overlay cells (binary BATON vs BATON* m=4/m=8 vs Chord) to the matrix")

		// Flight-recorder flags (run and bench modes).
		traceSample = flag.Int("tracesample", 0, "sample 1 in N requests for hop-level tracing (0 = off); in bench mode also gates the sampling overhead on the direct-get row")
		metricsOut  = flag.String("metricsout", "", "write the flight-recorder dump (metrics registry, structural-op journal, sampled traces) to this JSON file after the run")
	)
	flag.Parse()
	routeMode, err := parseRoute(*route)
	if err != nil {
		fatal(err)
	}
	dist := workload.Uniform
	if *theta > 0 {
		dist = workload.Zipf
	}
	s := scenario{
		cluster: driver.ClusterSpec{
			Peers: *peers, Items: *items, Seed: *seed, ZipfTheta: *theta,
			Fanout: *fanout, Transport: *transport, Listen: *listen,
		},
		workload: driver.Config{
			Clients:          *clients,
			Ops:              *ops,
			GetFraction:      *getFrac,
			PutFraction:      *putFrac,
			DeleteFraction:   *delFrac,
			RangeFraction:    *rangeFrac,
			RangeSelectivity: *selectivity,
			Plan:             *plan,
			RangeDist:        *rangeDist,
			Route:            routeMode,
			BulkSize:         *bulkSize,
			KillPeers:        *kill,
			RecoverPeers:     *recovers,
			JoinPeers:        *joins,
			DepartPeers:      *departs,
			Distribution:     dist,
			ZipfTheta:        *theta,
			AutoBalance:      *autobalance,
			TraceSample:      *traceSample,
			Seed:             *seed,
		},
		seedAddr:   *seedAddr,
		compare:    *compare,
		metricsOut: *metricsOut,
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(*mode, set, s); err != nil {
		fatal(err)
	}

	switch *mode {
	case "run":
		if err := runScenario(s); err != nil {
			fatal(err)
		}
		return
	case "bench":
		runBench(benchOptions{
			cluster: s.cluster, clients: *clients, ops: *ops,
			out: *benchOut, requireSpeedup: *requireSpeedup, compareOverlays: *compareOverlays,
			traceSample: *traceSample, metricsOut: *metricsOut,
		})
		return
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

// modeFlags lists, for the live-cluster modes, the flags that only some
// modes read. Such a flag given to a mode that does not list it is an error:
// a run that drops -kill or -joins on the floor looks like a clean pass of a
// scenario that never executed, which is worse than an error. The figures
// mode reads none of them.
var modeFlags = map[string][]string{
	"run": {"get", "put", "del", "range", "selectivity", "plan", "rangedist", "bulk", "route",
		"kill", "joins", "departs", "recover", "theta", "autobalance", "compare", "seedaddr",
		"fanout", "transport", "listen", "tracesample", "metricsout"},
	"bench": {"out", "requirespeedup", "compareoverlays",
		"fanout", "transport", "listen", "tracesample", "metricsout"},
}

// checkFlags rejects a mode or flag combination that would be silently
// ignored or cannot work, before any cluster is built. set names the flags
// given on the command line; s carries their values.
func checkFlags(mode string, set map[string]bool, s scenario) error {
	accepted, ok := modeFlags[mode]
	if !ok && mode != "figures" {
		return fmt.Errorf("unknown mode %q (want figures, run or bench)", mode)
	}
	var hints []string
	seen := map[string]bool{}
	for _, f := range slices.Concat(modeFlags["run"], modeFlags["bench"]) {
		if !set[f] || seen[f] || slices.Contains(accepted, f) {
			continue
		}
		seen[f] = true
		var in []string
		for _, m := range []string{"run", "bench"} {
			if slices.Contains(modeFlags[m], f) {
				in = append(in, m)
			}
		}
		hints = append(hints, fmt.Sprintf("-%s (only meaningful in mode %s)", f, strings.Join(in, "/")))
	}
	if len(hints) > 0 {
		return fmt.Errorf("mode %q ignores flag(s) %s; drop them or switch mode", mode, strings.Join(hints, ", "))
	}

	switch t := s.cluster.Transport; t {
	case "local":
		if s.cluster.Listen != "" {
			return fmt.Errorf("-listen requires -transport tcp")
		}
		if s.seedAddr != "" {
			return fmt.Errorf("-seedaddr requires -transport tcp")
		}
	case "tcp":
	default:
		return fmt.Errorf("unknown -transport %q (want local or tcp)", t)
	}
	if s.seedAddr != "" {
		if s.cluster.Listen != "" {
			return fmt.Errorf("-seedaddr and -listen are mutually exclusive: attaching to a coordinator at %s means not listening as one", s.seedAddr)
		}
		// Structural operations and the balancer belong to the coordinator,
		// and AttachCluster preloads uniform keys.
		for _, f := range []string{"kill", "joins", "departs", "recover", "autobalance", "theta", "compare"} {
			if set[f] {
				return fmt.Errorf("-%s cannot be combined with -seedaddr: an attached client is not the coordinator", f)
			}
		}
	}
	if !core.ValidFanout(s.cluster.Fanout) {
		return fmt.Errorf("invalid -fanout %d (want 2..%d)", s.cluster.Fanout, core.MaxFanout)
	}
	return s.workload.Validate()
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
