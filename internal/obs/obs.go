// Package obs is the cluster's flight recorder: a dependency-free
// observability layer the live message path reports into and every
// higher layer (driver, batonsim, the facade) reads from.
//
// It has three pieces, designed around one constraint — the data plane
// must never take a lock or allocate on behalf of instrumentation:
//
//   - The metrics registry (registry.go). Each peer owns a PeerMetrics
//     block of per-message-kind counters (delivered / spilled / refused),
//     spill-queue gauges, and streaming histograms for queue wait and
//     handle time. The blocks are the shards: writes are sharded by peer
//     and kind exactly as the inbox already shards deliveries, every hot
//     counter sits on its own cache line so two peers' blocks never
//     false-share, and a snapshot is a plain atomic sweep — no locks,
//     no stop-the-world.
//
//   - Request tracing (trace.go). A Trace is an optional context a
//     sampled request carries through the overlay; each hop appends
//     (peer, kind, tree level, queue wait, handle time). Sampling is
//     1-in-N with N settable at runtime; with sampling off the only cost
//     on the request path is one atomic load, and nothing allocates.
//
//   - The structural-op journal (journal.go). A fixed-size ring buffer
//     of membership events — join, depart, kill, recover, balance — with
//     per-phase durations and outcomes, so "what did the overlay just do
//     to itself" is answerable after the fact without logs.
//
// The streaming Histogram (hist.go) is the tree's one histogram type:
// the live cluster's queue-wait and handle-time distributions, the
// workload driver's per-op latencies and hop counts, and the facade's
// MetricsHistogram all use it. Its log-linear bucket layout is fixed up
// front (exact below 128, 16 linear sub-buckets per power of two above),
// so a sample costs one atomic add, memory does not grow with the
// sample count, and a percentile above 128 is within 1/32 of every
// sample its bucket holds.
package obs
