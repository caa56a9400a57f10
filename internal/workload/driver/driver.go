// Package driver is the closed-loop concurrent workload driver for the live
// p2p cluster: N client goroutines issue a configurable read/write/range mix
// (optionally batched through the bulk APIs, optionally under churn) and the
// run is summarised as ops/sec, exact latency percentiles over every
// recorded sample (in fractional microseconds), and hop and queue-wait
// percentiles from the flight recorder's histograms. It lives in its own
// package, rather than in internal/workload proper, because it drives
// internal/p2p while the core simulator's tests consume internal/workload's
// generators — folding it into workload would create an import cycle in the
// test build.
package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/p2p"
	"baton/internal/stats"
	"baton/internal/store"
	"baton/internal/workload"
)

// ClusterSpec describes the live cluster BuildCluster builds.
type ClusterSpec struct {
	// Peers is the cluster size.
	Peers int
	// Items uniformly or Zipf-distributed keys are pre-loaded.
	Items int
	// Seed seeds the overlay's growth and the pre-loaded keys.
	Seed int64
	// ZipfTheta > 0 draws the pre-loaded keys from Zipf(ZipfTheta), which
	// clusters the hot ranks in a contiguous region of the key space, the
	// way the paper's skew experiments do. The overlay's ranges are grown
	// by uniform joins either way, so a skewed load lands on a few peers.
	// Zero loads uniform keys.
	ZipfTheta float64
	// Fanout is the tree fanout m: 2 (or 0) grows the paper's binary
	// overlay, larger values the BATON* m-ary generalisation.
	Fanout int
	// Transport is "local" (or empty) for in-process channels, or "tcp"
	// for a loopback wire pair: a coordinator hosting roughly half the
	// peers listens on Listen ("" picks a free loopback port), and a
	// daemon half in the same OS process joins through the wire and hosts
	// the rest, so every cross-half message, handoff, replica sync and
	// structural update crosses the transport, as between cmd/batond
	// processes.
	Transport string
	Listen    string
}

// BuildCluster grows a simulated network to spec.Peers via random joins,
// loads it with spec.Items keys and animates it as a live cluster — the
// shared scaffold of cmd/batonsim, the examples and the benchmarks. The
// returned keys are the inserted ones (reads drawn from them hit). Over tcp
// the returned cluster is the coordinator: every scenario drives it
// unchanged. The caller must call the returned stop function instead of
// Cluster.Stop; over tcp it tears down the daemon half first.
func BuildCluster(spec ClusterSpec) (*p2p.Cluster, []keyspace.Key, func(), error) {
	if spec.Fanout != 0 && !core.ValidFanout(spec.Fanout) {
		return nil, nil, nil, fmt.Errorf("build cluster: invalid fanout %d (want 2..%d)", spec.Fanout, core.MaxFanout)
	}
	daemonShare := 0
	switch spec.Transport {
	case "", "local":
	case "tcp":
		daemonShare = spec.Peers / 2
	default:
		return nil, nil, nil, fmt.Errorf("build cluster: unknown transport %q (want local or tcp)", spec.Transport)
	}
	nw := core.NewNetwork(core.Config{Seed: spec.Seed, Fanout: spec.Fanout})
	rng := rand.New(rand.NewSource(spec.Seed))
	for nw.Size() < spec.Peers-daemonShare {
		ids := nw.PeerIDs()
		if _, _, err := nw.Join(ids[rng.Intn(len(ids))]); err != nil {
			return nil, nil, nil, fmt.Errorf("grow cluster: %w", err)
		}
	}
	dist := workload.Uniform
	if spec.ZipfTheta > 0 {
		dist = workload.Zipf
	}
	gen := workload.NewGenerator(workload.Config{Seed: spec.Seed + 1, Distribution: dist, ZipfTheta: spec.ZipfTheta})
	keys := gen.Keys(spec.Items)
	for _, k := range keys {
		if _, err := nw.Insert(nw.RandomPeer(), k, []byte("v")); err != nil {
			return nil, nil, nil, fmt.Errorf("load cluster: %w", err)
		}
	}
	if spec.Transport != "tcp" {
		c := p2p.NewCluster(nw)
		return c, keys, c.Stop, nil
	}
	listen := spec.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	head, err := p2p.NewClusterListen(nw, listen)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("listen: %w", err)
	}
	if daemonShare == 0 {
		return head, keys, head.Stop, nil
	}
	daemon, err := p2p.JoinRemote(head.Addr(), daemonShare)
	if err != nil {
		head.Stop()
		return nil, nil, nil, fmt.Errorf("join daemon half: %w", err)
	}
	stop := func() {
		daemon.Stop()
		head.Stop()
	}
	return head, keys, stop, nil
}

// AttachCluster joins an existing multi-process overlay (a cmd/batond
// coordinator) at seedAddr as a pure data-plane client and preloads items
// uniformly drawn keys through the wire, so the returned key set behaves
// like BuildCluster's (reads drawn from it hit). Structural operations are
// the coordinator's alone — drive only churn-free workloads through the
// returned cluster. The caller must Stop it.
func AttachCluster(seedAddr string, items int, seed int64) (*p2p.Cluster, []keyspace.Key, error) {
	c, err := p2p.JoinRemote(seedAddr, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("attach to %s: %w", seedAddr, err)
	}
	gen := workload.NewGenerator(workload.Config{Seed: seed + 1, Distribution: workload.Uniform})
	keys := gen.Keys(items)
	for at := 0; at < len(keys); at += 1024 {
		batch := keys[at:min(at+1024, len(keys))]
		puts := make([]store.Item, len(batch))
		for i, k := range batch {
			puts[i] = store.Item{Key: k, Value: []byte("v")}
		}
		results, err := c.BulkPut(puts)
		if err != nil {
			c.Stop()
			return nil, nil, fmt.Errorf("preload via %s: %w", seedAddr, err)
		}
		for _, r := range results {
			if r.Err != nil {
				c.Stop()
				return nil, nil, fmt.Errorf("preload key %d: %w", r.Key, r.Err)
			}
		}
	}
	return c, keys, nil
}

// Op names the operation kinds the throughput driver issues.
type Op string

// Operations the driver mixes.
const (
	OpGet     Op = "get"
	OpPut     Op = "put"
	OpDelete  Op = "delete"
	OpRange   Op = "range"
	OpBulkPut Op = "bulkput"
)

// Config configures a closed-loop concurrent workload against a live
// p2p.Cluster: Clients goroutines each issue one operation at a time (no
// think time) until Ops operations have completed or Duration has elapsed,
// whichever comes first.
type Config struct {
	// Clients is the number of concurrent client goroutines. Default 8.
	Clients int
	// Ops caps the total number of operations across all clients. Default
	// 10000 when Duration is zero, unlimited otherwise.
	Ops int
	// Duration caps the wall-clock run time. Zero means no time cap.
	Duration time.Duration
	// GetFraction, PutFraction, DeleteFraction and RangeFraction weight the
	// operation mix; they are normalised, and all-zero defaults to
	// 70% get / 20% put / 10% range.
	GetFraction, PutFraction, DeleteFraction, RangeFraction float64
	// RangeSelectivity is the queried fraction of the key domain per range
	// query. Default 0.01.
	RangeSelectivity float64
	// Plan selects the range execution plan: "serial" (the adjacent-chain
	// walk), "parallel" (the scatter fan-out) or "adaptive" (the query
	// layer's fixed span rule picks per request: ranges touching fewer
	// than query.SerialSpanLimit peers walk, wider ones scatter). Empty
	// means "parallel".
	Plan string
	// RangeDist shapes the per-query range width around the
	// RangeSelectivity base width: "fixed" (every query uses the base
	// width; the default), "uniform" (widths uniform in [1, 2·base], same
	// mean) or "bimodal" (half the queries very narrow at base/16, half
	// very wide at 16·base — the mixed workload an adaptive planner has to
	// split across plans).
	RangeDist string
	// Route selects how singleton Get/Put/Delete requests are routed: the
	// zero value p2p.RouteOverlay is the paper-faithful per-hop walk,
	// p2p.RouteDirect the one-hop epoch-validated fast path. Run installs
	// the mode on the cluster for the whole run.
	Route p2p.RouteMode
	// BulkSize batches puts through BulkPut in groups of this size when > 1;
	// gets and ranges are unaffected.
	BulkSize int
	// Keys are pre-loaded keys gets and deletes draw from. When empty, gets
	// draw random keys (mostly misses).
	Keys []keyspace.Key
	// KillPeers peers are killed at evenly spaced points of the run to
	// exercise fault-tolerant routing under load. Default 0. Kills are
	// capped so at least one peer always survives: a scheduler that kills
	// the last alive peer degenerates the rest of the run to 100% errors
	// and measures nothing.
	KillPeers int
	// RecoverPeers crash repairs run at evenly spaced points of the run:
	// each one picks a currently dead member and runs Cluster.Recover on it
	// (structural repair plus replica data restoration), so a matched
	// KillPeers/RecoverPeers pair measures availability under a crash-and-
	// repair regime where ErrOwnerDown windows open and close continuously.
	// A recover event with no dead peer to repair is skipped. Default 0.
	RecoverPeers int
	// AutoRecover starts the cluster's background repairer for the run:
	// observed ErrOwnerDown errors queue the dead peer for repair without
	// explicit Recover calls. Useful with KillPeers alone.
	AutoRecover bool
	// JoinPeers new peers join the cluster online at evenly spaced points
	// of the run (full Section III-A membership: locate, range split, data
	// migration). Default 0.
	JoinPeers int
	// DepartPeers peers leave gracefully at evenly spaced points of the run
	// (Section III-B, with full data handoff). Matched JoinPeers and
	// DepartPeers model steady-state churn: the cluster size holds roughly
	// constant while its composition turns over. Default 0.
	DepartPeers int
	// ValueSize is the payload size of writes in bytes. Default 8.
	ValueSize int
	// Distribution selects the key distribution of generated keys (writes,
	// read misses and range-query positions): workload.Uniform (the default)
	// or workload.Zipf, whose hot ranks cluster in a contiguous region of
	// the key space — the paper's skewed workload, which piles both data and
	// traffic onto a few peers.
	Distribution workload.Distribution
	// ZipfTheta is the skew parameter when Distribution is workload.Zipf.
	// Values <= 0 default to 1.0, the paper's setting.
	ZipfTheta float64
	// AutoBalance starts the cluster's background load balancer for the run
	// (p2p.Cluster.StartAutoBalance): hot peers shed load via adjacent
	// shuffles and forced rejoins while the workload executes. The report's
	// Rebalanced counter tallies the actions.
	AutoBalance bool
	// BalanceTheta is the balancer's overload trigger θ when AutoBalance is
	// set. Values <= 1 default to 2.
	BalanceTheta float64
	// TraceSample samples 1 in N requests for hop-level tracing (the
	// cluster's flight recorder); 0 — the default — turns sampling off,
	// which is free on the request path. Run installs the rate on the
	// cluster for the whole run.
	TraceSample int
	// Seed seeds the deterministic per-client random sources.
	Seed int64
}

// Range plan names accepted by Config.Plan.
const (
	PlanSerial   = "serial"
	PlanParallel = "parallel"
	PlanAdaptive = "adaptive"
)

// Range width distributions accepted by Config.RangeDist.
const (
	RangeDistFixed   = "fixed"
	RangeDistUniform = "uniform"
	RangeDistBimodal = "bimodal"
)

// Validate rejects a Config with an unknown Plan or RangeDist name. Run
// assumes a valid Config; cmd/batonsim turns a Validate error into a
// usage failure.
func (cfg Config) Validate() error {
	switch cfg.Plan {
	case "", PlanSerial, PlanParallel, PlanAdaptive:
	default:
		return fmt.Errorf("driver: unknown plan %q (want %s, %s or %s)",
			cfg.Plan, PlanSerial, PlanParallel, PlanAdaptive)
	}
	switch cfg.RangeDist {
	case "", RangeDistFixed, RangeDistUniform, RangeDistBimodal:
	default:
		return fmt.Errorf("driver: unknown range distribution %q (want %s, %s or %s)",
			cfg.RangeDist, RangeDistFixed, RangeDistUniform, RangeDistBimodal)
	}
	return nil
}

// planOf resolves the effective range plan: Plan, or parallel when empty.
func (cfg Config) planOf() string {
	if cfg.Plan != "" {
		return cfg.Plan
	}
	return PlanParallel
}

// Report summarises one driver run: counts, wall-clock throughput and
// per-operation latency percentiles (microseconds).
type Report struct {
	Clients  int
	Ops      int64
	Errors   int64
	NotFound int64
	// Killed, Joined, Departed and Recovered count the churn events that
	// actually executed: abrupt kills, online joins, graceful departures
	// and crash repairs. Rebalanced counts the background balancer's
	// actions (adjacent shuffles and forced rejoins) during the run.
	Killed     int
	Joined     int
	Departed   int
	Recovered  int
	Rebalanced int
	Elapsed    time.Duration
	OpsPerSec  float64
	// Latency maps an operation kind (plus "all") to its recorded latency
	// samples in microseconds.
	Latency map[Op]*stats.Latency
	// HopsP50 and HopsP99 are percentiles of the per-operation message hop
	// counts (every routed op reports its hops; the driver histograms them).
	HopsP50, HopsP99 float64
	// QueueWaitP50us and QueueWaitP99us are percentiles of the per-hop
	// queue wait — how long messages sat in peer inboxes before being
	// served — over this run only (the cluster registry's delta),
	// in microseconds.
	QueueWaitP50us, QueueWaitP99us float64
	// PlanSerial and PlanParallel are the query layer's planning counters
	// over this run only (the cluster's PlanStats delta): adaptive-path
	// range queries dispatched serially and in parallel. Both zero unless
	// the run used Plan "adaptive".
	PlanSerial, PlanParallel int64
}

// OpAll indexes the aggregate latency distribution in Report.Latency.
const OpAll Op = "all"

// String renders the report as an aligned table of throughput and latency
// percentiles, the format cmd/batonsim prints in run mode.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "clients %d  ops %d  errors %d  notfound %d  churn killed/joined/departed/recovered %d/%d/%d/%d  rebalanced %d\n",
		r.Clients, r.Ops, r.Errors, r.NotFound, r.Killed, r.Joined, r.Departed, r.Recovered, r.Rebalanced)
	fmt.Fprintf(&b, "elapsed %v  throughput %.0f ops/sec\n", r.Elapsed.Round(time.Millisecond), r.OpsPerSec)
	fmt.Fprintf(&b, "hops p50/p99 %.0f/%.0f  queue wait p50/p99 %.1f/%.1f µs\n",
		r.HopsP50, r.HopsP99, r.QueueWaitP50us, r.QueueWaitP99us)
	if r.PlanSerial+r.PlanParallel > 0 {
		fmt.Fprintf(&b, "plans serial/parallel %d/%d\n", r.PlanSerial, r.PlanParallel)
	}
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s %10s %10s\n", "op", "count", "mean µs", "p50 µs", "p95 µs", "p99 µs", "max µs")
	ops := make([]string, 0, len(r.Latency))
	for op := range r.Latency {
		ops = append(ops, string(op))
	}
	sort.Strings(ops)
	for _, op := range ops {
		l := r.Latency[Op(op)]
		if l.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s %10d %10.0f %10.0f %10.0f %10.0f %10.0f\n",
			op, l.Count(), l.Mean(), l.Percentile(0.50), l.Percentile(0.95), l.Percentile(0.99), l.Max())
	}
	return b.String()
}

// Run executes the configured closed-loop workload against the
// cluster and returns the aggregated report. Routing errors (ErrOwnerDown,
// ErrUnreachable) are counted, not fatal: under churn they are the expected
// behaviour. The driver never blocks indefinitely — that is the cluster's
// concurrency contract, and the driver is also its continuous test.
func Run(c *p2p.Cluster, cfg Config) Report {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Ops <= 0 && cfg.Duration == 0 {
		cfg.Ops = 10_000
	}
	if cfg.GetFraction == 0 && cfg.PutFraction == 0 && cfg.DeleteFraction == 0 && cfg.RangeFraction == 0 {
		cfg.GetFraction, cfg.PutFraction, cfg.RangeFraction = 0.7, 0.2, 0.1
	}
	if cfg.RangeSelectivity <= 0 {
		cfg.RangeSelectivity = 0.01
	}
	if cfg.RangeSelectivity > 1 {
		cfg.RangeSelectivity = 1
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 8
	}
	if cfg.Distribution == "" {
		cfg.Distribution = workload.Uniform
	}
	c.SetRouteMode(cfg.Route)
	c.SetTraceSampling(cfg.TraceSample)
	queueWaitBefore := c.Metrics().QueueWait
	balanceEventsBefore := c.BalanceEvents()
	if cfg.AutoBalance {
		c.StartAutoBalance(p2p.AutoBalanceConfig{Theta: cfg.BalanceTheta})
	}
	total := cfg.GetFraction + cfg.PutFraction + cfg.DeleteFraction + cfg.RangeFraction
	getCut := cfg.GetFraction / total
	putCut := getCut + cfg.PutFraction/total
	delCut := putCut + cfg.DeleteFraction/total

	// Membership changes while the run executes, so the peer-ID view is an
	// atomically swapped snapshot, refreshed by the churn scheduler.
	var idsPtr atomic.Pointer[[]core.PeerID]
	refreshIDs := func() { ids := c.PeerIDs(); idsPtr.Store(&ids) }
	refreshIDs()
	value := make([]byte, cfg.ValueSize)
	domain := keyspace.FullDomain()
	width := int64(float64(domain.Size()) * cfg.RangeSelectivity)
	if width < 1 {
		width = 1
	}
	// widthFor draws one query's range width around the base width
	// according to the configured distribution; each client passes its own
	// deterministic source.
	clampWidth := func(w int64) int64 {
		if w < 1 {
			return 1
		}
		if max := domain.Size(); w > max {
			return max
		}
		return w
	}
	widthFor := func(rng *rand.Rand) int64 {
		switch cfg.RangeDist {
		case RangeDistUniform:
			return clampWidth(1 + rng.Int63n(2*width))
		case RangeDistBimodal:
			if rng.Intn(2) == 0 {
				return clampWidth(width / 16)
			}
			return clampWidth(width * 16)
		default: // "" or RangeDistFixed
			return width
		}
	}
	plan := cfg.planOf()
	plansBefore := c.PlanStats()

	report := Report{
		Clients: cfg.Clients,
		Latency: map[Op]*stats.Latency{
			OpGet: {}, OpPut: {}, OpDelete: {}, OpRange: {}, OpBulkPut: {}, OpAll: {},
		},
	}
	// opsDone hands out the operation budget (one increment per roll, so a
	// batched put consumes budget per key); unitsDone counts the logical key
	// operations actually completed, which is what the report's throughput
	// is computed from — a flushed BulkPut of k keys counts k, not 1.
	var opsDone, unitsDone, errCount, notFound atomic.Int64
	var deadline time.Time
	start := time.Now()
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	stopping := func(n int64) bool {
		if cfg.Ops > 0 && n > int64(cfg.Ops) {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}

	// Churn: kill, join and depart events at evenly spaced points of the
	// run — by operation count when an op budget is set, by elapsed time in
	// Duration-only runs — so membership changes land mid-traffic rather
	// than before or after it. The event kinds are shuffled together
	// deterministically, so matched join/depart counts interleave instead
	// of draining the cluster and then refilling it.
	type churnKind int
	const (
		churnKill churnKind = iota
		churnJoin
		churnDepart
		churnRecover
	)
	if cfg.AutoRecover {
		c.StartAutoRecover()
	}
	churnRng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	var events []churnKind
	for i := 0; i < cfg.KillPeers; i++ {
		events = append(events, churnKill)
	}
	for i := 0; i < cfg.JoinPeers; i++ {
		events = append(events, churnJoin)
	}
	for i := 0; i < cfg.DepartPeers; i++ {
		events = append(events, churnDepart)
	}
	churnRng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	// Recover events are interleaved after the shuffle so that, with
	// matched counts, each repair tends to follow the crash that warranted
	// it instead of firing first and finding nothing dead.
	if cfg.RecoverPeers > 0 && len(events) > 0 {
		mixed := make([]churnKind, 0, len(events)+cfg.RecoverPeers)
		per := float64(cfg.RecoverPeers) / float64(len(events))
		acc := 0.0
		for _, ev := range events {
			mixed = append(mixed, ev)
			for acc += per; acc >= 1; acc-- {
				mixed = append(mixed, churnRecover)
			}
		}
		for len(mixed) < len(events)+cfg.RecoverPeers {
			mixed = append(mixed, churnRecover)
		}
		events = mixed
	} else {
		for i := 0; i < cfg.RecoverPeers; i++ {
			events = append(events, churnRecover)
		}
	}
	var fired atomic.Int64 // events attempted (scheduler progress)
	var killed, joined, departed, recovered atomic.Int64
	eventsDue := func(n int64) int64 {
		if len(events) == 0 {
			return 0
		}
		// The run ends at whichever cap is hit first, so pace the events by
		// whichever fraction is further along.
		var frac float64
		if cfg.Ops > 0 {
			frac = float64(n) / float64(cfg.Ops)
		}
		if cfg.Duration > 0 {
			if tf := float64(time.Since(start)) / float64(cfg.Duration); tf > frac {
				frac = tf
			}
		}
		due := int64(frac * float64(len(events)+1))
		if due > int64(len(events)) {
			due = int64(len(events))
		}
		return due
	}
	// aliveMembers counts live members; kills and departures are capped so
	// at least one peer always survives to serve (and departures also need
	// a second peer to absorb the data).
	aliveMembers := func() int {
		n := 0
		for _, id := range *idsPtr.Load() {
			if c.Alive(id) {
				n++
			}
		}
		return n
	}
	randAlive := func() (core.PeerID, bool) {
		ids := *idsPtr.Load()
		for tries := 0; tries < 20; tries++ {
			id := ids[churnRng.Intn(len(ids))]
			if c.Alive(id) {
				return id, true
			}
		}
		return 0, false
	}
	var churnMu sync.Mutex
	maybeChurn := func(n int64) {
		if fired.Load() >= eventsDue(n) {
			return
		}
		churnMu.Lock()
		defer churnMu.Unlock()
		for fired.Load() < eventsDue(n) {
			ev := events[fired.Load()]
			fired.Add(1)
			switch ev {
			case churnKill:
				if aliveMembers() <= 1 {
					continue // never kill the last survivor
				}
				if id, ok := randAlive(); ok && c.Kill(id) == nil {
					killed.Add(1)
				}
			case churnJoin:
				if id, ok := randAlive(); ok {
					if _, err := c.Join(id); err == nil {
						joined.Add(1)
						refreshIDs()
					}
				}
			case churnDepart:
				if aliveMembers() <= 1 {
					continue // the last survivor must keep serving
				}
				if id, ok := randAlive(); ok {
					if err := c.Depart(id); err == nil {
						departed.Add(1)
						refreshIDs()
					}
				}
			case churnRecover:
				for _, id := range *idsPtr.Load() {
					if c.Alive(id) {
						continue
					}
					if _, err := c.Recover(id); err == nil || errors.Is(err, p2p.ErrReplicaLost) {
						recovered.Add(1)
						refreshIDs()
					}
					break // one repair per event, like the other kinds
				}
			}
		}
	}

	// hopsHist histograms every routed op's message hop count (exact buckets
	// below 128, so routed hop counts lose no precision).
	var hopsHist obs.Histogram
	record := func(op Op, units int, d time.Duration, err error, found bool, hops int) {
		us := float64(d.Nanoseconds()) / 1e3
		report.Latency[op].Add(us)
		report.Latency[OpAll].Add(us)
		unitsDone.Add(int64(units))
		if err != nil {
			errCount.Add(1)
		} else {
			hopsHist.Observe(int64(hops))
			if !found {
				notFound.Add(1)
			}
		}
	}

	var wg sync.WaitGroup
	for cl := 0; cl < cfg.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(cl)*7919))
			// Every freshly generated key — writes, read misses, range-query
			// positions — comes from the configured distribution; under
			// workload.Zipf the stream hammers the hot region.
			gen := workload.NewGenerator(workload.Config{
				Distribution: cfg.Distribution,
				ZipfTheta:    cfg.ZipfTheta,
				Seed:         cfg.Seed + int64(cl)*104729,
			})
			randKey := func() keyspace.Key {
				if len(cfg.Keys) > 0 && rng.Float64() < 0.9 {
					return cfg.Keys[rng.Intn(len(cfg.Keys))]
				}
				return gen.NextKey()
			}
			liveVia := func() (core.PeerID, bool) {
				ids := *idsPtr.Load()
				for tries := 0; tries < 16; tries++ {
					id := ids[rng.Intn(len(ids))]
					if c.Alive(id) {
						return id, true
					}
				}
				return 0, false
			}
			var bulk []store.Item
			flushBulk := func() {
				if len(bulk) == 0 {
					return
				}
				t0 := time.Now()
				res, err := c.BulkPut(bulk)
				us := float64(time.Since(t0).Nanoseconds()) / 1e3
				report.Latency[OpBulkPut].Add(us)
				report.Latency[OpAll].Add(us)
				unitsDone.Add(int64(len(bulk)))
				if err != nil {
					// Whole-call failure: every key in the batch failed.
					errCount.Add(int64(len(bulk)))
				} else {
					// Count failures per key so Errors stays comparable with
					// the singleton-put mode.
					for _, r := range res {
						if r.Err != nil {
							errCount.Add(1)
						}
					}
				}
				bulk = bulk[:0]
			}
			defer flushBulk() // don't silently drop a trailing partial batch
			for {
				n := opsDone.Add(1)
				if stopping(n) {
					return
				}
				maybeChurn(n)
				via, ok := liveVia()
				if !ok {
					return
				}
				roll := rng.Float64()
				switch {
				case roll < getCut:
					t0 := time.Now()
					_, found, hops, err := c.Get(via, randKey())
					record(OpGet, 1, time.Since(t0), err, found, hops)
				case roll < putCut:
					k := gen.NextKey()
					if cfg.BulkSize > 1 {
						// Batch appends are free; flushBulk stamps its own
						// timer around the actual BulkPut.
						bulk = append(bulk, store.Item{Key: k, Value: value})
						if len(bulk) >= cfg.BulkSize {
							flushBulk()
						}
					} else {
						t0 := time.Now()
						hops, err := c.Put(via, k, value)
						record(OpPut, 1, time.Since(t0), err, true, hops)
					}
				case roll < delCut:
					t0 := time.Now()
					found, hops, err := c.Delete(via, randKey())
					record(OpDelete, 1, time.Since(t0), err, found, hops)
				default:
					// Range queries positioned by the distribution too, so a
					// skewed run scans the hot region as often as it reads it.
					w := widthFor(rng)
					lo := gen.NextKey()
					if ceil := domain.Upper - keyspace.Key(w); lo > ceil {
						lo = ceil
					}
					if lo < domain.Lower {
						lo = domain.Lower
					}
					r := keyspace.NewRange(lo, lo+keyspace.Key(w))
					var err error
					var hops int
					t0 := time.Now()
					switch plan {
					case PlanSerial:
						_, hops, err = c.RangeSerial(via, r)
					case PlanAdaptive:
						_, hops, err = c.RangeAdaptive(via, r)
					default:
						_, hops, err = c.Range(via, r)
					}
					record(OpRange, 1, time.Since(t0), err, true, hops)
				}
			}
		}(cl)
	}
	wg.Wait()

	report.Elapsed = time.Since(start)
	report.Ops = unitsDone.Load()
	report.Errors = errCount.Load()
	report.NotFound = notFound.Load()
	report.Killed = int(killed.Load())
	report.Joined = int(joined.Load())
	report.Departed = int(departed.Load())
	report.Recovered = int(recovered.Load())
	report.Rebalanced = int(c.BalanceEvents() - balanceEventsBefore)
	if secs := report.Elapsed.Seconds(); secs > 0 {
		report.OpsPerSec = float64(report.Ops) / secs
	}
	hops := hopsHist.Snapshot()
	report.HopsP50 = float64(hops.Percentile(50))
	report.HopsP99 = float64(hops.Percentile(99))
	queueWait := c.Metrics().QueueWait.Sub(queueWaitBefore)
	report.QueueWaitP50us = float64(queueWait.Percentile(50)) / 1e3
	report.QueueWaitP99us = float64(queueWait.Percentile(99)) / 1e3
	plans := c.PlanStats()
	report.PlanSerial = plans.Serial - plansBefore.Serial
	report.PlanParallel = plans.Parallel - plansBefore.Parallel
	return report
}
