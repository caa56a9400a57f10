package obs

import "sync/atomic"

// PlanCounters tallies the query layer's planning decisions: how many
// adaptive range queries ran serially and how many in parallel. The
// counters are plain atomics written on the client-side dispatch path (no
// peer is involved in planning), so they live beside the registry rather
// than in any peer's block.
type PlanCounters struct {
	serial   atomic.Int64
	parallel atomic.Int64
}

// Serial records one adaptive query dispatched as a serial chain walk.
func (p *PlanCounters) Serial() { p.serial.Add(1) }

// Parallel records one adaptive query dispatched as a parallel scatter.
func (p *PlanCounters) Parallel() { p.parallel.Add(1) }

// Snapshot returns the current counter values.
func (p *PlanCounters) Snapshot() PlanSnapshot {
	return PlanSnapshot{
		Serial:   p.serial.Load(),
		Parallel: p.parallel.Load(),
	}
}

// PlanSnapshot is a point-in-time copy of the planning counters.
type PlanSnapshot struct {
	Serial   int64 `json:"serial"`
	Parallel int64 `json:"parallel"`
	// CacheHits always reads 0: the query layer has no plan cache. The
	// field is kept only because the perfbench harness reads it to derive
	// query.cache_hit_frac.
	CacheHits int64 `json:"cache_hits"`
}
