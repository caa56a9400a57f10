// Package baton is the public API of this repository: a from-scratch
// implementation of BATON — the BAlanced Tree Overlay Network of Jagadish,
// Ooi, Rinard and Vu (VLDB 2005) — together with the substrates its
// evaluation depends on (a per-peer ordered storage engine, workload
// generators, a CHORD baseline and a multiway-tree baseline) and a harness
// that regenerates every figure of the paper.
//
// The central type is Network, an in-process simulation of a BATON overlay
// that executes the full protocol — join, leave, failure and repair, exact
// and range search, insertion, deletion, restructuring and load balancing —
// while counting every message peers would exchange, which is the metric the
// paper reports. See the examples directory for runnable walkthroughs and
// cmd/batonsim for the experiment driver.
//
//	nw := baton.NewNetwork(baton.Config{Seed: 1})
//	for i := 0; i < 1000; i++ {
//		nw.Join(nw.RandomPeer())
//	}
//	nw.Insert(nw.RandomPeer(), 42, []byte("value"))
//	value, found, cost, _ := nw.SearchExact(nw.RandomPeer(), 42)
//
// The heavy lifting lives in internal packages; this package re-exports the
// user-facing types so downstream code has a single stable import path.
package baton

import (
	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/p2p"
	"baton/internal/query"
	"baton/internal/stats"
	"baton/internal/store"
)

// Key is a point in the one-dimensional key space the overlay partitions.
type Key = keyspace.Key

// Range is a half-open key interval [Lower, Upper).
type Range = keyspace.Range

// NewRange returns the half-open range [lower, upper).
func NewRange(lower, upper Key) Range { return keyspace.NewRange(lower, upper) }

// FullDomain returns the paper's default key domain, [1, 10^9).
func FullDomain() Range { return keyspace.FullDomain() }

// Item is a key/value pair stored at a peer.
type Item = store.Item

// PeerID is the stable physical identity of a peer.
type PeerID = core.PeerID

// Position identifies a peer's logical place in the balanced binary tree.
type Position = core.Position

// NodeInfo is a read-only snapshot of one peer's state.
type NodeInfo = core.NodeInfo

// PeerSnapshot is a full copy of one peer's protocol state — position,
// range, items and link sets. It is the interchange format between the
// simulator and the live cluster: NewCluster animates a network from
// snapshots, and Cluster.Snapshot exports them back for auditing.
type PeerSnapshot = core.PeerSnapshot

// Side selects a tree side (left or right child, adjacent, routing table).
type Side = core.Side

// Sides of the tree.
const (
	Left  = core.Left
	Right = core.Right
)

// Config configures a simulated BATON network.
type Config = core.Config

// LoadBalanceConfig configures the load balancing scheme of Section IV-D of
// the paper.
type LoadBalanceConfig = core.LoadBalanceConfig

// LoadBalanceStats summarises load balancing activity.
type LoadBalanceStats = core.LoadBalanceStats

// Network is an in-process BATON overlay simulation. See core.Network for
// the full method set.
type Network = core.Network

// RangeResult is the answer to a range query.
type RangeResult = core.RangeResult

// OpCost reports the message cost of one overlay operation.
type OpCost = stats.OpCost

// Metrics accumulates message counters for a whole network.
type Metrics = stats.Metrics

// NewNetwork creates a network with a single peer owning the whole key
// domain.
func NewNetwork(cfg Config) *Network { return core.NewNetwork(cfg) }

// NetworkFromSnapshot rebuilds a simulated network from per-peer snapshots
// (for example the result of Cluster.Snapshot), wiring every link exactly
// as recorded. An empty domain means the paper's default.
func NetworkFromSnapshot(domain Range, peers []PeerSnapshot) (*Network, error) {
	return core.FromSnapshot(domain, peers)
}

// VerifySnapshot checks per-peer snapshots against the full structural
// invariant suite of the overlay: balanced tree shape, contiguous gap-free
// ranges, and symmetric link and routing-table state. Combined with
// Cluster.Snapshot it audits a live cluster after membership churn.
func VerifySnapshot(domain Range, peers []PeerSnapshot) error {
	return core.VerifySnapshot(domain, peers)
}

// ReplicaHolderOf returns the peer that holds the snapshotted peer's
// replica under the live cluster's adjacent-peer replication scheme: the
// right adjacent peer, or the left adjacent for the rightmost peer.
func ReplicaHolderOf(ps PeerSnapshot) PeerID { return core.ReplicaHolderOf(ps) }

// VerifyReplication checks the replication invariant over a quiesced,
// synchronised cluster: every peer's items exactly mirrored at its replica
// holder. Feed it Cluster.Snapshot and Cluster.Replicas, after
// Cluster.SyncReplicas has closed the asynchronous write-path window.
func VerifyReplication(peers []PeerSnapshot, replicas map[PeerID]map[PeerID][]Item) error {
	return core.VerifyReplication(peers, replicas)
}

// Errors re-exported from the core implementation.
var (
	// ErrUnknownPeer is returned when an operation names a peer that is not
	// part of the network.
	ErrUnknownPeer = core.ErrUnknownPeer
	// ErrPeerDown is returned when an operation is addressed to a failed
	// peer.
	ErrPeerDown = core.ErrPeerDown
	// ErrLastPeer is returned when the only remaining peer tries to leave.
	ErrLastPeer = core.ErrLastPeer
)

// Cluster is a live, concurrently executing deployment of a BATON overlay:
// one goroutine per peer, requests as messages, and fault-tolerant routing
// around killed peers. Every method is safe for concurrent use and never
// blocks indefinitely — see the package documentation of internal/p2p for
// the full concurrency contract. Beyond single-key Get/Put/Delete and the
// two range modes (parallel fan-out via Range, sequential chain walk via
// RangeSerial), the cluster offers batched BulkGet/BulkPut/BulkDelete that
// group keys by responsible peer and pipeline one message per peer.
//
// Membership is live: Join adds a brand-new peer online (the join request
// routes through the overlay per Section III-A, the accepting peer's range
// splits and the handed-off items migrate as batched messages), Depart
// performs the graceful leave of Section III-B with full data handoff
// (finding and splicing in a replacement leaf when a non-leaf peer leaves),
// and LoadBalance runs the adjacent-peer data shuffle of Section V.
// Structural operations serialise with each other while data traffic keeps
// flowing; keys in mid-handoff are forwarded or briefly buffered, never
// dropped. Snapshot exports the quiesced structure for auditing with
// VerifySnapshot or rebuilding with NetworkFromSnapshot.
//
// Load management is adaptive: Loads meters every peer (stored items plus a
// request-rate EWMA), ImbalanceRatio condenses a snapshot into the
// max/average load ratio, and StartAutoBalance runs the background balancer
// — adjacent shuffles when a hot peer's lighter neighbour has room, forced
// depart-and-rejoins of the globally lightest leaf (ForceRejoin, the
// Section III-E restructuring) when both neighbours are loaded — so a
// Zipf-skewed workload no longer piles onto a handful of peers.
//
// The cluster is fault-tolerant end to end: every peer's items are
// replicated at its adjacent peer (asynchronously on the write path,
// synchronously across membership changes; SyncReplicas is the barrier),
// so a Kill makes the dead peer's range answer ErrOwnerDown only
// transiently — Recover (or the background repairer enabled by
// StartAutoRecover) repairs the structure around the crash and restores
// the lost range from the surviving replica. Replicas exports the replica
// sets for auditing with VerifyReplication.
type Cluster = p2p.Cluster

// BulkResult is the per-key outcome of a bulk operation on a Cluster.
type BulkResult = p2p.BulkResult

// PeerLoad is one peer's slice of a Cluster.Loads snapshot: its stored-item
// count (the paper's load measure) and the request-rate EWMA of the data
// messages it handles.
type PeerLoad = p2p.PeerLoad

// AutoBalanceConfig tunes Cluster.StartAutoBalance / Cluster.BalanceOnce:
// the overload trigger θ (a peer is overloaded when it stores more than θ
// times its lighter adjacent peer, or θ times the cluster average), the
// check cadence, and the load floor below which peers are left alone.
type AutoBalanceConfig = p2p.AutoBalanceConfig

// BalanceAction reports what one balancing pass did: nothing, an
// adjacent-peer shuffle, or a forced depart-and-rejoin.
type BalanceAction = p2p.BalanceAction

// Balancing actions reported by Cluster.BalanceOnce.
const (
	BalanceNone    = p2p.BalanceNone
	BalanceShuffle = p2p.BalanceShuffle
	BalanceRejoin  = p2p.BalanceRejoin
)

// ImbalanceRatio condenses a load snapshot into the max/average stored-item
// ratio: 1.0 is perfectly balanced. The skewed-workload experiments track
// it before and after balancing.
func ImbalanceRatio(loads []PeerLoad) float64 { return p2p.ImbalanceRatio(loads) }

// RouteMode selects how a Cluster routes singleton Get/Put/Delete requests:
// RouteOverlay (the default) walks the overlay per-hop exactly as the paper
// describes, RouteDirect sends each request straight to the key's owner via
// the epoch-validated route cache, falling back to overlay forwarding when
// the cache is stale or the owner is down. Switch with Cluster.SetRouteMode;
// Cluster.StaleRoutes counts direct requests that had to fall back.
type RouteMode = p2p.RouteMode

// Routing modes for Cluster.SetRouteMode.
const (
	RouteOverlay = p2p.RouteOverlay
	RouteDirect  = p2p.RouteDirect
)

// Plan is a planned execution strategy for one range query: the serial
// adjacent-chain walk or the parallel scatter. Cluster.RangeAdaptive picks
// one per request from the range's estimated peer-span with a fixed rule:
// ranges touching fewer than four peers walk, wider ones scatter.
type Plan = query.Plan

// Range execution plans.
const (
	PlanSerial   = query.PlanSerial
	PlanParallel = query.PlanParallel
)

// Pred is a pushdown predicate for Cluster.GetFiltered /
// Cluster.RangeFiltered / Cluster.RangeIterFiltered: plain serialisable
// data evaluated at the owning peer, so items that cannot match never
// cross the wire. A positive Limit caps the result and terminates serial
// walks early.
type Pred = query.Pred

// RangeIter is a streaming range query in progress: Cluster.RangeIter
// scatters the range and yields items in bounded batches as the covering
// peers deliver them, never materialising the full result.
type RangeIter = p2p.RangeIter

// PlanSnapshot is the query planner's counters — adaptive range queries
// dispatched serially and in parallel — returned by Cluster.PlanStats and
// embedded in ClusterMetrics. Its CacheHits field always reads 0.
type PlanSnapshot = obs.PlanSnapshot

// ClusterMetrics is the lock-free snapshot of the cluster's metrics
// registry returned by Cluster.Metrics: per-peer delivered / spilled /
// refused message counts, stale-route attribution, inbox and spill-queue
// gauges, and queue-wait / handle-time histograms with cluster-wide
// percentiles. Taking it never stops traffic.
type ClusterMetrics = obs.ClusterMetrics

// PeerMetricsSnapshot is one peer's slice of a ClusterMetrics.
type PeerMetricsSnapshot = obs.PeerSnapshot

// MetricsHistogram is a snapshot of one streaming histogram in the metrics
// registry (exact buckets for small values, logarithmic above), with
// Percentile, Mean, Merge and Sub for before/after deltas.
type MetricsHistogram = obs.HistogramSnapshot

// TraceHop is one hop of a sampled request trace: the peer that served the
// message, the message kind, the peer's tree level, and the hop's queue
// wait and handle time. Enable sampling with Cluster.SetTraceSampling and
// read completed chains with Cluster.Traces.
type TraceHop = obs.Hop

// ClusterEvent is one entry of the structural-op journal kept by the live
// cluster: every Join / Depart / Kill / Recover / balance action with
// per-phase durations, the number of items migrated and the outcome. Read
// the retained journal with Cluster.Events.
type ClusterEvent = obs.Event

// NewCluster animates a snapshot of the simulated network as a live
// cluster: every peer becomes a goroutine serving its share of the data.
// Call Stop when done.
//
//	cluster := baton.NewCluster(nw)
//	defer cluster.Stop()
//	items, _, err := cluster.Range(cluster.PeerIDs()[0], baton.NewRange(100, 5000))
func NewCluster(nw *Network) *Cluster { return p2p.NewCluster(nw) }

// Errors re-exported from the live cluster implementation.
var (
	// ErrClusterStopped is returned by cluster operations after Stop.
	ErrClusterStopped = p2p.ErrStopped
	// ErrOwnerDown is returned when the peer responsible for a key is dead.
	ErrOwnerDown = p2p.ErrOwnerDown
	// ErrUnreachable is returned when routing cannot reach the responsible
	// peer because every useful link points at dead peers.
	ErrUnreachable = p2p.ErrUnreachable
	// ErrReplicaLost is returned by Cluster.Recover when the crashed peer's
	// range was repaired but its replica holder was down too, so the data
	// could not be restored.
	ErrReplicaLost = p2p.ErrReplicaLost
)
