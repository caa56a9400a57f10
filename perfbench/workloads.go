package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/p2p"
	"baton/internal/store"
)

// workload is one fixed traffic mix. All workloads run 128 binary peers
// holding the same seeded dataset; they differ in transport, routing mode
// and operation mix, so each one puts a different layer on the blocking
// path of the request.
type workload struct {
	name        string
	why         string
	wire        bool // loopback TCP: coordinator + daemon + attached client
	route       p2p.RouteMode
	dataClients int
	putFrac     float64 // share of puts among point operations
	ranges      bool    // RangeAdaptive only
	churn       bool    // a membership caller alternates Join and Depart
	warmOps     int64   // warm-up operations per data client
	// hot holds the repeated narrow ranges of range-mix.
	hot []keyspace.Range
}

// Range-mix shares. Sorted by latency the narrow hot repeats come first,
// then the fresh narrow ranges, then the wide ones, so p50 falls in the
// middle of the fresh-narrow mode and p99 deep inside the wide mode.
//
// A range is drawn as a run of consecutive loaded keys, so every answer has
// a known, fixed size. A narrow range holds narrowKeys keys, about a
// sixteenth of one peer's share: most narrow ranges fall inside one peer,
// where the planner's serial-versus-parallel choice is clear-cut. (Ranges
// of a whole share straddle two or three peers, where the two plans cost
// about the same and the planner's commit flips from run to run.) A wide
// range holds a quarter of the keys, so it spans about a quarter of the
// peers.
const (
	hotFrac    = 0.15
	freshFrac  = 0.65 // narrow total 0.80, wide 0.20
	hotRanges  = 32
	narrowKeys = 48
	wideShare  = 4 // a wide range holds 1/wideShare of the keys
	// memberPeriod spaces the churn workload's Join/Depart calls on a
	// fixed schedule, so a faster structural path means less interference
	// rather than more churn.
	memberPeriod = 250 * time.Millisecond
)

var workloads = []*workload{
	{
		name:        "kv-overlay",
		why:         "per-hop overlay routing of 90/10 Get/Put on the local transport: the message plane and routing do the work",
		route:       p2p.RouteOverlay,
		dataClients: 2,
		putFrac:     0.10,
		warmOps:     10000,
	},
	// kv-wire is not among BENCHMARK.json's workloads: on a two-core host
	// its times drift by 20-30% from run to run with the host's load, more
	// than any bound the benchmark can hold. Run it by name to measure the
	// wire path, and to watch for calls the watchdog claims as stuck.
	{
		name:        "kv-wire",
		why:         "direct 50/50 Get/Put from an attached client over loopback TCP: codec, framing, socket and replication writes",
		wire:        true,
		route:       p2p.RouteDirect,
		dataClients: 2,
		putFrac:     0.50,
		warmOps:     10000,
	},
	{
		name:        "range-mix",
		why:         "RangeAdaptive only, 80% narrow (some repeated) and 20% wide: store scans, scatter and the planner and plan cache",
		route:       p2p.RouteOverlay,
		dataClients: 2,
		ranges:      true,
		warmOps:     400,
	},
	{
		name:        "churn",
		why:         "direct 90/10 Get/Put beside Join and Depart on a fixed schedule: membership, handoff, the core mirror and stale routes",
		route:       p2p.RouteDirect,
		dataClients: 1,
		putFrac:     0.10,
		churn:       true,
		warmOps:     20000,
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// prepare derives the workload's seeded inputs that do not depend on the
// running system: range-mix's hot set of repeated narrow ranges. 32 ranges
// are few against the plan cache's 256 slots; which slots they land in is
// the cache's business, so they are drawn without regard to it.
func (w *workload) prepare(seed uint64, ds *dataset) {
	if !w.ranges {
		return
	}
	rng := rand.New(rand.NewPCG(seed, 0x686f74))
	w.hot = make([]keyspace.Range, hotRanges)
	for i := range w.hot {
		w.hot[i] = ds.randomRange(rng, narrowKeys)
	}
}

// randomRange draws a range holding exactly n consecutive loaded keys.
func (ds *dataset) randomRange(rng *rand.Rand, n int) keyspace.Range {
	i := rng.IntN(len(ds.keys) - n)
	return keyspace.Range{Lower: ds.keys[i], Upper: ds.keys[i+n]}
}

// next draws a client's next operation.
func (w *workload) next(rng *rand.Rand, s *system, ds *dataset) op {
	ids := *s.ids.Load()
	o := op{via: ids[rng.IntN(len(ids))]}
	if w.ranges {
		o.kind = opRange
		switch u := rng.Float64(); {
		case u < hotFrac:
			o.rng = w.hot[rng.IntN(len(w.hot))]
		case u < hotFrac+freshFrac:
			o.rng = ds.randomRange(rng, narrowKeys)
		default:
			o.rng = ds.randomRange(rng, len(ds.keys)/wideShare)
		}
		return o
	}
	o.idx = rng.IntN(len(ds.keys))
	if rng.Float64() < w.putFrac {
		o.kind = opPut
	}
	return o
}

// exec issues one operation through the cluster's public API and checks
// the answer.
func (w *workload) exec(s *system, ds *dataset, o op) outcome {
	switch o.kind {
	case opGet:
		k := ds.keys[o.idx]
		v, found, hops, err := s.client.Get(o.via, k)
		return outcome{err: err, hops: hops, wrong: !found || !valueMatches(k, v)}
	case opPut:
		hops, err := s.client.Put(o.via, ds.keys[o.idx], ds.values[o.idx])
		return outcome{err: err, hops: hops}
	default:
		items, hops, err := s.client.RangeAdaptive(o.via, o.rng)
		return outcome{err: err, hops: hops, items: len(items), wrong: err == nil && !rangeMatches(ds, o.rng, items)}
	}
}

// rangeMatches checks a range answer against the dataset: exactly the
// loaded keys inside r, in order, without duplicates, each with its value.
func rangeMatches(ds *dataset, r keyspace.Range, items []store.Item) bool {
	lo := sort.Search(len(ds.keys), func(i int) bool { return ds.keys[i] >= r.Lower })
	if len(items) != ds.countIn(r) {
		return false
	}
	for i, it := range items {
		if it.Key != ds.keys[lo+i] || !valueMatches(it.Key, it.Value) {
			return false
		}
	}
	return true
}

// memberLoop is the churn workload's second caller: on a fixed schedule it
// alternates Join (entering at a random member) and Depart (of a random
// member), so the overlay stays at its size.
type memberLoop struct {
	client
	ph      *phase
	joins   []float64 // ms
	departs []float64 // ms
}

func newMemberLoop(ph *phase) *memberLoop {
	m := &memberLoop{ph: ph}
	m.rng = rand.New(rand.NewPCG(ph.cfg.seed, ph.salt<<16|0xffff))
	m.stuckNs = memberStuckAfter.Nanoseconds()
	m.done = make(chan struct{})
	return m
}

func (m *memberLoop) run() {
	defer close(m.done)
	ph := m.ph
	for tick := int64(1); ; tick++ {
		due := ph.start + tick*memberPeriod.Nanoseconds()
		if due >= ph.deadline || ph.stop.Load() {
			return
		}
		time.Sleep(time.Until(ph.base.Add(time.Duration(due))))
		ids := *ph.sys.ids.Load()
		target := ids[m.rng.IntN(len(ids))]
		join := tick%2 == 1
		start := ph.now()
		m.inCall.Store(start)
		var err error
		if join {
			_, err = ph.sys.coord.Join(target)
		} else {
			err = ph.sys.coord.Depart(target)
		}
		end := ph.now()
		if !m.inCall.CompareAndSwap(start, 0) {
			return
		}
		m.note(outcome{err: err})
		ph.sys.refreshIDs()
		ms := float64(end-start) / 1e6
		name := "p2p.depart"
		if join {
			m.joins = append(m.joins, ms)
			name = "p2p.join"
		} else {
			m.departs = append(m.departs, ms)
		}
		if ph.sl != nil {
			m.spans = append(m.spans, span{ID: ph.sl.nextID.Add(1), Parent: ph.spanID, Req: -tick, Name: name, Start: start, End: end})
		}
	}
}

// audit is the churn workload's closing check: replicas synced, the
// structural and replication invariants hold, and every loaded key reads
// back with its value. It returns the number of failed checks and the
// first failure.
func audit(s *system, ds *dataset) (checks, failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	checks += 3
	if err := s.coord.SyncReplicas(); err != nil {
		fail(fmt.Errorf("sync replicas: %w", err))
	}
	snaps, err := s.coord.Snapshot()
	if err == nil {
		err = core.VerifySnapshot(s.coord.Domain(), snaps)
	}
	if err != nil {
		fail(fmt.Errorf("structural audit: %w", err))
	}
	if replicas, err := s.coord.Replicas(); err != nil {
		fail(fmt.Errorf("replica export: %w", err))
	} else if err := core.VerifyReplication(snaps, replicas); err != nil {
		fail(fmt.Errorf("replication audit: %w", err))
	}
	ids := *s.ids.Load()
	for i, k := range ds.keys {
		checks++
		v, found, _, err := s.client.Get(ids[i%len(ids)], k)
		if err == nil && (!found || !valueMatches(k, v)) {
			err = fmt.Errorf("read-back of key %d: found=%v, value does not match", k, found)
		}
		if err != nil {
			fail(err)
		}
	}
	return checks, failed, first
}
