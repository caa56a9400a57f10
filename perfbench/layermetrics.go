package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"baton/internal/obs"
)

// layerUnits is the traced run's per-layer metric set with units. Every
// traced run reports each of them; one that a workload does not exercise
// (replication per put in range-mix, say) reads 0.
var layerUnits = map[string]string{
	"p2p.dispatch_per_op":           "msgs",
	"p2p.spill_frac":                "ratio",
	"p2p.refused_frac":              "ratio",
	"p2p.queue_wait_ns_per_hop":     "ns",
	"p2p.handle_ns_per_hop":         "ns",
	"p2p.queue_wait_ns_per_hop.get": "ns",
	"p2p.queue_wait_ns_per_hop.put": "ns",
	"p2p.handle_ns_per_hop.get":     "ns",
	"p2p.handle_ns_per_hop.put":     "ns",
	"p2p.client_residual_us":        "us",
	"p2p.route.hops_mean":           "hops",
	"p2p.route.stale_frac":          "ratio",
	"p2p.repl.msgs_per_put":         "msgs",
	"p2p.range.msgs_per_op":         "msgs",
	"p2p.range.items_per_op":        "items",
	"p2p.range.hops_p50":            "hops",
	"p2p.member.prepare_ms":         "ms",
	"p2p.member.extract_ms":         "ms",
	"p2p.member.handoff_ms":         "ms",
	"p2p.member.link_update_ms":     "ms",
	"p2p.member.migrated_per_op":    "items",
	"query.cache_hit_frac":          "ratio",
	"query.serial_frac":             "ratio",
	"query.estimate_span_ns":        "ns",
	"store.get_ns":                  "ns",
	"store.put_ns":                  "ns",
	"store.scan_ns_per_item":        "ns",
	"store.allocs_per_scan":         "allocs",
	"transport.rtt_p50_us":          "us",
	"transport.frame_write_ns":      "ns",
	"transport.frame_read_ns":       "ns",
	"transport.allocs_per_frame":    "allocs",
	"transport.wire_residual_us":    "us",
	"core.join_us":                  "us",
	"core.leave_us":                 "us",
	"core.join_msgs":                "msgs",
	"obs.trace_overhead_frac":       "ratio",
	"obs.observe_ns":                "ns",
	"runtime.gc_cpu_frac":           "ratio",
	"runtime.gc_per_kop":            "count",
	"runtime.bytes_per_op":          "bytes",
	"bench.record_ns":               "ns",
	"span.self_frac.bench":          "ratio",
	"span.self_frac.core":           "ratio",
	"span.self_frac.p2p":            "ratio",
	"span.self_frac.query":          "ratio",
	"span.self_frac.store":          "ratio",
	"span.self_frac.transport":      "ratio",
	"span.self_frac.obs":            "ratio",
}

// spanLayers are the layers the benchmark's spans are named after.
var spanLayers = []string{"bench", "core", "p2p", "query", "store", "transport", "obs"}

// counters is a point-in-time reading of every public counter the
// benchmark uses, summed over the in-process nodes.
type counters struct {
	msgs       int64
	delivered  int64
	spilled    int64
	refused    int64
	replicate  int64
	stale      int64
	queueWait  obs.HistogramSnapshot
	handle     obs.HistogramSnapshot
	plans      obs.PlanSnapshot
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	totalCPU   float64
	// The wire split: hop time on the server nodes (not the attached
	// client) and their GET/PUT deliveries.
	serverHopNs  int64
	serverHops   int64
	serverPoints int64
}

func snap(s *system) counters {
	var c counters
	for _, n := range s.nodes {
		m := n.Metrics()
		c.msgs += n.Messages()
		c.stale += n.StaleRoutes()
		c.delivered += sum(m.Delivered)
		c.spilled += sum(m.Spilled)
		c.refused += sum(m.Refused)
		c.replicate += m.Delivered["REPLICATE"]
		c.queueWait = c.queueWait.Merge(m.QueueWait)
		c.handle = c.handle.Merge(m.HandleTime)
		if n != s.client {
			c.serverHopNs += m.QueueWait.Sum + m.HandleTime.Sum
			c.serverHops += m.QueueWait.Count
			c.serverPoints += m.Delivered["GET"] + m.Delivered["PUT"]
		}
	}
	c.plans = s.client.PlanStats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.totalAlloc, c.numGC = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 && samples[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU, c.totalCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	return c
}

func sum(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}

// hopSample is one traced hop of a singleton request.
type hopSample struct {
	trace  int
	kind   string
	waitNs int64
	handNs int64
}

// collectHops reads the retained traces of every node. The trace ring
// keeps the most recent traces only, so the caller reads it at the end of
// each traced segment.
func collectHops(s *system) []hopSample {
	var out []hopSample
	id := 0
	for _, n := range s.nodes {
		for _, tr := range n.Traces() {
			id++
			for _, h := range tr {
				out = append(out, hopSample{trace: id, kind: h.Kind, waitNs: h.QueueWaitNs, handNs: h.HandleNs})
			}
		}
	}
	return out
}

// layerMetrics derives the per-layer split of the traced run from counter
// deltas, the traced hops and the structural-op journal.
func layerMetrics(m map[string]float64, s *system, before, after counters, run *client, tracedPoint *hist,
	dataOps float64, hops []hopSample, events map[int64]obs.Event, since time.Time) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delivered := float64(after.delivered - before.delivered)
	qw := after.queueWait.Sub(before.queueWait)
	hd := after.handle.Sub(before.handle)
	m["p2p.dispatch_per_op"] = ratio(delivered, dataOps)
	m["p2p.spill_frac"] = ratio(float64(after.spilled-before.spilled), delivered)
	m["p2p.refused_frac"] = ratio(float64(after.refused-before.refused), delivered)
	m["p2p.queue_wait_ns_per_hop"] = qw.Mean()
	m["p2p.handle_ns_per_hop"] = hd.Mean()

	// Per kind, from the traced hops.
	var waits, hands, counts [2]float64
	traced := map[int]bool{}
	var tracedNs float64
	kinds := map[string]int{"GET": 0, "PUT": 1}
	for _, h := range hops {
		if i, ok := kinds[h.kind]; ok {
			waits[i] += float64(h.waitNs)
			hands[i] += float64(h.handNs)
			counts[i]++
			traced[h.trace] = true
			tracedNs += float64(h.waitNs + h.handNs)
		}
	}
	m["p2p.queue_wait_ns_per_hop.get"] = ratio(waits[0], counts[0])
	m["p2p.queue_wait_ns_per_hop.put"] = ratio(waits[1], counts[1])
	m["p2p.handle_ns_per_hop.get"] = ratio(hands[0], counts[0])
	m["p2p.handle_ns_per_hop.put"] = ratio(hands[1], counts[1])
	// Hops are not keyed by request, so the client's time outside traced
	// hops is joined by aggregate: the mean point-op latency of the traced
	// segments minus the mean traced hop time per request.
	m["p2p.client_residual_us"] = 0
	if len(traced) > 0 {
		m["p2p.client_residual_us"] = (tracedPoint.mean() - tracedNs/float64(len(traced))) / 1e3
	}
	point := mergedKinds(run, opGet, opPut)

	var pointHops, pointOps float64
	for _, k := range []opKind{opGet, opPut} {
		for h, n := range run.hops[k] {
			pointHops += float64(h) * float64(n)
			pointOps += float64(n)
		}
	}
	m["p2p.route.hops_mean"] = ratio(pointHops, pointOps)
	m["p2p.route.stale_frac"] = ratio(float64(after.stale-before.stale), pointOps)
	puts := float64(mergedKinds(run, opPut).n)
	m["p2p.repl.msgs_per_put"] = ratio(float64(after.replicate-before.replicate), puts)
	ranges := float64(mergedKinds(run, opRange).n)
	if ranges > 0 {
		m["p2p.range.msgs_per_op"] = ratio(float64(after.msgs-before.msgs), dataOps)
	} else {
		m["p2p.range.msgs_per_op"] = 0
	}
	m["p2p.range.items_per_op"] = ratio(float64(run.items[opRange]), ranges)
	m["p2p.range.hops_p50"] = hopsMedian(run.hops[opRange][:])

	phases := map[string]float64{}
	var nEvents, migrated float64
	for _, ev := range events {
		if ev.Start.Before(since) || (ev.Op != "join" && ev.Op != "depart") {
			continue
		}
		nEvents++
		migrated += float64(ev.Migrated)
		for _, p := range ev.Phases {
			phases[p.Name] += float64(p.DurationNs) / 1e6
		}
	}
	m["p2p.member.prepare_ms"] = ratio(phases["prepare"], nEvents)
	m["p2p.member.extract_ms"] = ratio(phases["extract"], nEvents)
	m["p2p.member.handoff_ms"] = ratio(phases["handoff"], nEvents)
	m["p2p.member.link_update_ms"] = ratio(phases["link-update"], nEvents)
	m["p2p.member.migrated_per_op"] = ratio(migrated, nEvents)

	serial := float64(after.plans.Serial - before.plans.Serial)
	parallel := float64(after.plans.Parallel - before.plans.Parallel)
	m["query.cache_hit_frac"] = ratio(float64(after.plans.CacheHits-before.plans.CacheHits), ranges)
	m["query.serial_frac"] = ratio(serial, serial+parallel)

	m["transport.wire_residual_us"] = 0
	if len(s.nodes) > 1 {
		perHop := ratio(float64(after.serverHopNs-before.serverHopNs), float64(after.serverHops-before.serverHops))
		pointsPerOp := ratio(float64(after.serverPoints-before.serverPoints), pointOps)
		m["transport.wire_residual_us"] = (point.mean() - perHop*pointsPerOp) / 1e3
	}

	m["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["runtime.gc_per_kop"] = ratio(float64(after.numGC-before.numGC), dataOps/1000)
	m["runtime.bytes_per_op"] = ratio(float64(after.totalAlloc-before.totalAlloc), dataOps)
}

// hopsMedian is the median of a hop-count distribution (0 when empty).
func hopsMedian(counts []int64) float64 {
	var n int64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	half := (n + 1) / 2
	var seen int64
	for h, c := range counts {
		seen += c
		if seen >= half {
			return float64(h)
		}
	}
	return float64(len(counts) - 1)
}
