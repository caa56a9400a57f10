// Package p2p runs a BATON overlay as a set of live, concurrently executing
// peers: every peer is a goroutine with an inbox, requests travel between
// peers as messages, and clients issue queries against any peer they know.
//
// The message-counting simulator in internal/core is what reproduces the
// paper's figures (operations there are serialised, exactly like the
// authors' simulator). This package is the deployment-shaped counterpart:
// it takes a snapshot of a core.Network — positions, ranges, links and data —
// and animates it, so that many exact-match, insert and range requests can
// be in flight at the same time, and so that the overlay can change while
// traffic is running: peers can be killed and recovered (the fault
// tolerance of Sections III-C/III-D, plus data replication the paper
// leaves out), new peers can Join online (Section III-A), and peers can
// Depart gracefully with full data handoff (Section III-B).
//
// # Live membership
//
// Join locates the accept node by routing a JOIN message through the live
// peers exactly as Algorithm 1 forwards it — to the parent when a routing
// table is incomplete, sideways to routing-table neighbours, to the adjacent
// peers — until a peer with full routing tables and a free child slot
// answers. Depart finds a replacement leaf for a non-leaf peer by walking
// FINDREPLACEMENT messages down the live tree (Algorithm 2). The structural
// bookkeeping of an accepted change — which ranges split or merge, which
// links every affected peer ends up with — is computed on an internal
// data-less mirror of the overlay structure (a core.Network), and the delta
// is then pushed back out to the affected peers as messages:
//
//  1. Peers that are gaining key ranges are prepared first: they adopt their
//     new range and links and start buffering requests that touch the
//     still-in-flight regions.
//  2. Source peers then shrink, extract the handed-off items and send them
//     as one batched data message per region directly to the receiving
//     peer, which absorbs the items and replays everything it buffered.
//     Keys in mid-handoff are therefore forwarded or briefly held — never
//     dropped — and no acknowledged write is lost.
//  3. Every other peer whose links changed receives its new link set. A
//     departed peer's goroutine stays behind as a tombstone that forwards
//     stragglers (requests addressed to it by stale routing state) to the
//     peer that took over its range.
//
// Structural operations (Join, Depart, LoadBalance, ForceRejoin, Kill,
// Recover, Snapshot) serialise with each other on a membership lock,
// mirroring how the paper's protocol serialises structural changes around
// the affected region, while Get/Put/Delete/Range/Bulk traffic keeps
// flowing throughout — data requests never take the membership lock.
// LoadBalance performs the adjacent-peer data shuffle of Section V: the
// peer measures its own and its adjacent peers' loads and moves the
// boundary so that about half the imbalance changes hands.
//
// # Load management
//
// The cluster meters its own load (loadmanager.go): every peer counts the
// data requests it handles on an atomic, Loads snapshots per-peer
// stored-item counts plus a request-rate EWMA, and ImbalanceRatio condenses
// a snapshot into the max/average stored-load ratio. StartAutoBalance runs
// the opt-in background balancer: whenever the most loaded peer exceeds θ
// times its lighter adjacent peer (the Section V trigger), it either runs
// the adjacent-peer shuffle or — when both neighbours are themselves
// loaded — recruits the globally lightest leaf for a forced depart-and-
// rejoin next to the hot peer (ForceRejoin, the Section III-E restructuring
// on the mirror plumbed through the same prepare→extract→handoff→link-update
// phases as Depart and Join, so no acknowledged write is lost). Each
// balancing action is one structural operation: it takes the membership
// lock like Join or Depart and therefore serialises with every other
// membership change, while data traffic keeps flowing and keys in
// mid-handoff are buffered, never dropped.
//
// # Fault tolerance
//
// A crash is survivable, not just routable-around. Every peer keeps a full
// copy of its items at its replica holder — its right adjacent peer (left
// for the rightmost; core.ReplicaHolderOf) — maintained asynchronously on
// the write path and re-shipped synchronously whenever a membership change
// moves the peer or its range (replication.go). SyncReplicas is the
// barrier that closes the asynchronous window: every write acknowledged
// before it returns is on its holder.
//
// Kill crashes a peer abruptly: its stores (own items and held replicas)
// are wiped, its range answers ErrOwnerDown, and routing fails over around
// it exactly as Section III-D describes — the dead peer remains part of
// the structure. Recover repairs it (recovery.go): the structural position
// is removed on the mirror with the crash-leave variant of the departure
// protocol (safe-leaf merge or replacement leaf, core.CrashLeaveWith), the
// lost range is restored from the surviving replica and handed to its new
// owner, links are refreshed and the topology republished, with the dead
// peer's goroutine left behind as a forwarding tombstone. ErrOwnerDown is
// therefore transient: requests fail over during the outage and succeed
// after the repair, with every replicated acknowledged write intact. The
// opt-in background repairer (StartAutoRecover) runs Recover automatically
// on peers that routing observes to be dead. One replica tolerates one
// crash between repairs: when a peer and its holder are down at once,
// Recover still repairs the range but reports ErrReplicaLost.
//
// # Concurrency contract
//
// Every exported method of Cluster is safe for concurrent use by any number
// of goroutines. A peer's protocol state is touched only by that peer's own
// goroutine — structural updates arrive as messages, like everything else —
// so request handling needs no per-item locking. Calls never block
// indefinitely:
//
//   - A request addressed to (or queued at) a peer that has been killed
//     fails with ErrOwnerDown instead of hanging.
//   - Stop may be called at any time, including with requests and
//     membership changes in flight; in-flight calls complete or return
//     ErrStopped, and shutdown never panics. Peers are never signalled by
//     closing their inboxes — shutdown is broadcast on a separate done
//     channel precisely so that concurrent senders cannot hit a closed
//     channel.
//
// # Routing modes
//
// Singleton Get/Put/Delete requests enter the overlay in one of two modes
// (SetRouteMode). RouteOverlay, the default, routes per-hop through the
// tree and sideways routing tables exactly as Algorithm search_exact
// describes — the paper-faithful path whose hop counts the experiments
// measure. RouteDirect is the fast data plane: the published topology's
// key-ordered ring doubles as an epoch-validated route cache, and requests
// go straight to the cached owner in one message, tagged with the ring's
// epoch. A receiver that no longer owns the key validates the tag against
// the live epoch: an older tag (the sender's ring predates a membership
// change) is re-aimed once at the owner the current ring names, while a
// current tag (the receiver's range moved under a publication still in
// flight) falls back to classic overlay forwarding — and a key mid-handoff
// is briefly buffered until its items land. Direct mode under churn
// therefore pays extra hops, never correctness; StaleRoutes counts the
// misses. A cached owner that is dead fails the delivery at the sender,
// which re-enters the overlay path and its usual fail-over rules. See
// routecache.go.
//
// Range queries come in two flavours: RangeSerial walks the right-adjacent
// chain one peer at a time exactly as Section IV-B describes, while Range
// (the default) scatters the uncovered remainder of the query across the
// chain and the sideways routing tables in parallel and gathers the partial
// answers in a per-query collector, turning O(peers-covered) sequential
// hops into a logarithmic-depth fan-out. Bulk operations (BulkGet, BulkPut,
// BulkDelete) group keys by responsible peer and pipeline one batched
// message per peer, amortising routing hops across the whole batch; keys
// whose owner changed under a concurrent membership operation are retried
// as routed singleton requests, so bulk calls stay correct under churn.
//
// # Query layer
//
// On top of the two fixed range flavours sits a thin adaptive planner
// (query.go, internal/query). RangeAdaptive estimates a range's peer-span
// from the published ring — two binary searches against state the client
// already holds, no messages, no locks — and applies one fixed rule:
// spans below query.SerialSpanLimit run the serial walk, wider ones the
// scatter. The request enters the overlay at the owner of the range's
// lower bound, found in the same ring, which is what makes narrow
// adaptive ranges cheap: no phase-1 routing hops. RangeIter
// streams a range answer: scatter branches push bounded batches through a
// channel-backed sink as they land, so wide queries allocate O(batch)
// rather than O(result). GetFiltered / RangeFiltered push a serialisable
// predicate (internal/query.Pred: value-length bounds, key-set
// membership, item limit) down to the owning peers, so items that cannot
// match never cross the wire, and a limited serial walk terminates the
// adjacent chain the moment the limit is satisfied.
//
// # Observability
//
// The cluster records what it does through internal/obs (metrics.go),
// and the instrumentation hooks sit strictly inside the lock order
// batonvet enforces:
//
//   - Per-peer counters and histograms live in each peer's PeerMetrics
//     block, reached through the *peer object — never by writing through
//     a topo.Load() snapshot (topoimmutable) — and are typed atomics, so
//     the data path takes no lock for them. deliverTo counts
//     delivered/spilled messages and stamps the enqueue time; the serve
//     loop's dispatch wrapper turns that stamp into queue-wait and
//     handle-time histogram samples; refuse attributes refused messages
//     to the peer that refused them. The spill-queue gauges are updated
//     inside the existing spillMu critical sections — spillMu nests
//     inside nothing, so no new lock edge appears.
//   - Sampled request traces ride inside the request struct (a nil
//     pointer when sampling is off, so the zero-alloc direct path is
//     untouched); hops are appended by the serving goroutine only.
//   - The structural-op journal is written exclusively under memberMu by
//     the operations that already hold it (Join, Depart, Kill, Recover,
//     LoadBalance, ForceRejoin) — journalBegin/journalEnd never lock, so
//     they are safe from *Locked helpers (lockedsuffix still holds) and
//     cannot invert the memberMu-before-spillMu order.
//
// Cluster.Metrics, Cluster.Events and Cluster.Traces read it all back
// without stopping traffic — see metrics.go.
package p2p

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/query"
	"baton/internal/store"
	"baton/internal/transport"
)

// Errors returned by cluster operations.
var (
	// ErrStopped is returned when the cluster has been shut down.
	ErrStopped = errors.New("p2p: cluster stopped")
	// ErrUnknownPeer is returned when a request names a peer that does not
	// exist in the cluster.
	ErrUnknownPeer = errors.New("p2p: unknown peer")
	// ErrUnreachable is returned when a request cannot make progress because
	// every useful link points at dead peers.
	ErrUnreachable = errors.New("p2p: no route to the responsible peer")
	// ErrOwnerDown is returned when the peer responsible for a key is dead.
	ErrOwnerDown = errors.New("p2p: responsible peer is down")
)

// errMoved is the internal marker a peer attaches to a bulk-batch key it no
// longer owns (the client's ring cache was stale across a membership
// change); the client retries those keys as routed singleton requests and
// the marker never escapes to callers.
var errMoved = errors.New("p2p: key moved to another peer")

// kind enumerates request kinds.
type kind int

const (
	kindGet kind = iota
	kindPut
	kindDelete
	kindRange
	kindRangeScatter
	kindBulkGet
	kindBulkPut
	kindBulkDelete

	// Membership protocol messages.
	kindJoinLocate      // Algorithm 1: locate a peer that can accept a child
	kindFindReplacement // Algorithm 2: walk down to a replacement leaf
	kindUpdate          // adopt new structural state / extract handed-off data
	kindHandoff         // batched data items migrating between peers
	kindSnapshot        // export the peer's protocol state
	kindStats           // report the peer's stored-item count
	kindSplitKey        // report the key at a fraction of the local items

	// Fault-tolerance messages (replication.go, recovery.go).
	kindCrash         // wipe the peer's stores: its process has crashed
	kindReplicate     // incremental replica update from the write path
	kindReplicaSync   // wholesale replacement of one source's replica set
	kindReplicaDrop   // discard one source's replica set
	kindReplicaResync // instruct a peer to full-sync to its current holder
	kindReplicaFetch  // return the replica set held for one source
	kindReplicaDump   // export every replica set this peer holds

	// Query-layer messages (query.go): predicate-pushdown variants of the
	// singleton get and the range query. They carry a serialisable
	// query.Pred evaluated at the owning peer, so items that cannot match
	// never cross the wire; a kindRangePred with a limit stops the serial
	// chain walk as soon as the limit is satisfied.
	kindGetPred   // singleton get answered through the pushdown predicate
	kindRangePred // range query carrying a pushdown predicate
)

// numKinds sizes per-kind metric arrays; it must track the enum above.
const numKinds = int(kindRangePred) + 1

// String names the kind for metrics and traces. The switch is exhaustive
// (kindexhaustive) so a new kind cannot ship without a display name.
func (k kind) String() string {
	switch k {
	case kindGet:
		return "GET"
	case kindPut:
		return "PUT"
	case kindDelete:
		return "DELETE"
	case kindRange:
		return "RANGE"
	case kindRangeScatter:
		return "RANGE_SCATTER"
	case kindBulkGet:
		return "BULK_GET"
	case kindBulkPut:
		return "BULK_PUT"
	case kindBulkDelete:
		return "BULK_DELETE"
	case kindJoinLocate:
		return "JOIN_LOCATE"
	case kindFindReplacement:
		return "FIND_REPLACEMENT"
	case kindUpdate:
		return "UPDATE"
	case kindHandoff:
		return "HANDOFF"
	case kindSnapshot:
		return "SNAPSHOT"
	case kindStats:
		return "STATS"
	case kindSplitKey:
		return "SPLIT_KEY"
	case kindCrash:
		return "CRASH"
	case kindReplicate:
		return "REPLICATE"
	case kindReplicaSync:
		return "REPLICA_SYNC"
	case kindReplicaDrop:
		return "REPLICA_DROP"
	case kindReplicaResync:
		return "REPLICA_RESYNC"
	case kindReplicaFetch:
		return "REPLICA_FETCH"
	case kindReplicaDump:
		return "REPLICA_DUMP"
	case kindGetPred:
		return "GET_PRED"
	case kindRangePred:
		return "RANGE_PRED"
	default:
		return fmt.Sprintf("KIND_%d", int(k))
	}
}

// kindName adapts kind.String to the index-based callback obs snapshots
// take.
func kindName(i int) string { return kind(i).String() }

// isControl reports whether the request kind must be handled even by a
// killed peer: structural updates and snapshots keep a dead peer's recorded
// state coherent (it remains part of the overlay structure until it is
// repaired), a handoff must never be dropped, and a crash notification is by
// definition addressed to a peer that is already down. Replica traffic is
// NOT control: a dead peer must refuse it, or it would keep acknowledging
// replicas its wiped process cannot hold.
func isControl(k kind) bool {
	return k == kindUpdate || k == kindHandoff || k == kindSnapshot || k == kindCrash
}

// request is one message travelling through the overlay. Replies are
// delivered on the embedded channel so a client blocks only on its own
// request.
type request struct {
	kind  kind
	key   keyspace.Key
	value []byte
	rng   keyspace.Range
	hops  int
	acc   []store.Item // accumulated range results (serial walk)
	// par marks a kindRange request that should fan out in parallel once
	// phase-1 routing reaches the peer owning the range's lower bound.
	par bool
	// coll is the shared gather state of a parallel range query; set on
	// kindRangeScatter sub-requests (which carry no reply channel of their
	// own — the collector answers the client when the last branch finishes)
	// and on streaming queries, whose client builds the collector itself so
	// the channel-backed sink travels with the request (see query.go).
	coll *collector
	// pred is the pushdown predicate of a kindGetPred / kindRangePred
	// request, evaluated at the owning peer. Plain serialisable data —
	// see query.Pred. Parallel scatter branches read it from coll instead,
	// so one query evaluates one predicate wherever its branches run.
	pred *query.Pred
	// bulk carries the keys/items of a batched operation or a data handoff.
	bulk []store.Item
	// state, gains, moves and departTo are the payload of a kindUpdate
	// message (see membership.go).
	state    *peerState
	gains    []keyspace.Range
	moves    []handoffMove
	departTo core.PeerID
	// frac is the payload of a kindSplitKey request.
	frac float64
	// src names the peer whose items a replica message carries (or asks
	// for); dels lists replicated deletions; seq orders replica messages
	// from one source so a delta delivered after a later wholesale sync —
	// the two travel from different goroutines — is recognised as stale
	// (see replication.go).
	src  core.PeerID
	dels []keyspace.Key
	seq  int64
	// visited records the peers this request has already passed through so
	// fail-over never loops; only one copy of the request is in flight at a
	// time, so the map is never accessed concurrently.
	visited map[core.PeerID]bool
	// epoch, when non-zero, marks a direct-routed request (RouteDirect fast
	// path): the sender believed the target owned key under the tagged
	// topology epoch. A receiver that does not own the key counts the miss
	// and validates the tag against the live epoch — an older tag is
	// re-aimed once via the current ring, a current one falls back to
	// classic per-hop overlay forwarding (see handle) — so churn costs
	// extra hops, never correctness. Zero is reserved to mean "not direct";
	// topology epochs start at 1.
	epoch uint64
	// enq is stamped by deliverTo when the request is accepted into the
	// target's inbox or spill queue; the serving goroutine's dispatch turns
	// it into the queue-wait sample. A by-value field, so it costs no
	// allocation on the zero-alloc direct path.
	enq time.Time
	// trace, when non-nil, marks a sampled request: every peer that
	// handles it appends a hop record (see dispatch). Nil with sampling
	// off, which is what keeps instrumentation off the allocation budget.
	trace *obs.Trace
	reply chan response
	// rnode and rcorr identify the origin-node correlation of a request
	// that crossed the wire (set from the frame header by inboundRequest,
	// never encoded in the payload): the completion c.respond answers when
	// reply is nil. Zero on in-process requests and fire-and-forget wire
	// messages.
	rnode transport.NodeID
	rcorr uint64
}

// response is the terminal answer to a request.
type response struct {
	value   []byte
	found   bool
	items   []store.Item
	results []BulkResult
	hops    int
	// Membership replies.
	peerID   core.PeerID
	slot     int
	snap     *core.PeerSnapshot
	count    int
	splitKey keyspace.Key
	// replicaSets is the payload of a kindReplicaDump reply.
	replicaSets map[core.PeerID][]store.Item
	err         error
}

// link is the information a peer keeps about another peer: enough to decide
// where to forward a request (the paper's links carry the target's range).
type link struct {
	id    core.PeerID
	lower keyspace.Key
	upper keyspace.Key
}

// peer is one live peer: a goroutine draining an inbox. All fields other
// than the atomic alive flag are owned by the peer's goroutine once it has
// started; membership changes reach them as kindUpdate messages.
type peer struct {
	id     core.PeerID
	fanout int
	// node is the transport node hosting this peer: 0 for peers served by
	// this process (the overwhelmingly common case — and the only case in
	// a single-process cluster), nonzero for a *stub* standing in for a
	// peer hosted elsewhere. A stub has no goroutine; deliveries to it
	// detour through netLayer.deliver onto the wire (see node.go).
	// Immutable after construction.
	node  transport.NodeID
	pos   core.Position
	rng   keyspace.Range
	data  *store.Store
	inbox chan request

	parent *link
	// children holds the fanout child slots in tree order: slot 0 is the
	// leftmost child, slot fanout-1 the rightmost.
	children []*link
	adjacent [2]*link
	rt       [2][]*link // sideways routing tables, [Left|Right]

	// pending lists key regions this peer now owns but whose items are
	// still in flight from the previous owner; requests touching them are
	// buffered in held and replayed when the handoff arrives, so a key in
	// mid-handoff is never served from a half-empty store.
	pending []keyspace.Range
	held    []request

	// spill absorbs deliveries that find the inbox full: instead of one
	// transient goroutine per blocked send (unbounded when a peer is hot),
	// the overflow queues here and the serving goroutine drains it after
	// the older inbox entries, preserving per-peer FIFO delivery (see
	// deliverTo). spillWake (buffered 1) nudges the goroutine when the
	// queue goes non-empty.
	spillMu   sync.Mutex
	spill     []request
	spillWake chan struct{}
	// spillSince marks when the spill queue last went non-empty, so the
	// drain latency — how long the overflow sat before the goroutine got
	// to it — is measurable. Guarded by spillMu.
	spillSince time.Time

	// met is this peer's block of the metrics registry (delivered /
	// spilled / refused counters per kind, queue-wait and handle-time
	// histograms, spill gauges). Typed atomics throughout, written from
	// the delivery and serve paths without locks.
	met *obs.PeerMetrics

	// reqs counts the data requests (singleton, range, scatter and bulk
	// messages) this peer has handled — served or forwarded — the cheap
	// per-peer load signal behind Cluster.Loads' request-rate EWMA. items
	// mirrors the store's size, published by the owning goroutine after
	// every mutation (noteItems), so the load meter reads stored-item
	// counts without a control message per peer.
	reqs  atomic.Int64
	items atomic.Int64

	// replicas holds, per source peer, a copy of that peer's items — the
	// fault-tolerance layer of replication.go. replTo is the peer the last
	// full replica sync went to, remembered so a later sync to a different
	// holder can tell the old one to drop the stale set. replSeq stamps
	// outgoing replica messages (this peer as source); replicaMin records,
	// per source, the seq of the last wholesale sync absorbed (this peer as
	// holder), so older deltas arriving late are discarded.
	replicas   map[core.PeerID]*store.Store
	replTo     core.PeerID
	replSeq    int64
	replicaMin map[core.PeerID]int64

	// departed marks a peer that has gracefully left: its goroutine stays
	// behind as a tombstone forwarding stragglers to departTo, the peer
	// that took over its range, until a later structural operation retires
	// it (see reapTombstones).
	departed bool
	departTo core.PeerID

	alive atomic.Bool
	// gone refuses new deliveries to a tombstone being retired; inflight
	// counts deliveries between acceptance and completion so retirement
	// can prove no send will land after the goroutine exits.
	gone     atomic.Bool
	inflight atomic.Int64
	// quit is closed to retire a tombstone: the goroutine forwards any
	// remaining queued requests and exits.
	quit chan struct{}
}

// ringEntry is one slot of the client-side routing cache: a member peer and
// the lower bound of its range at the time the topology was published.
type ringEntry struct {
	id    core.PeerID
	lower keyspace.Key
	p     *peer
}

// topology is an immutable snapshot of the cluster's composition, swapped
// atomically on membership changes so the data path never takes a lock.
// peers holds every delivery target including killed members and departed
// tombstones; members, ring and ids describe the current overlay (killed
// peers included — they remain part of the structure — departed peers not).
// epoch counts ownership publications: it starts at 1 and is bumped by every
// publishTopology, so a request tagged with an older epoch may have been
// routed with a stale ring (see routecache.go).
type topology struct {
	peers   map[core.PeerID]*peer
	members map[core.PeerID]bool
	ring    []ringEntry
	ids     []core.PeerID
	hopCap  int
	epoch   uint64
}

// clone copies the topology with a fresh peers map (the mutable part of a
// membership change); the published overlay description is shared until the
// caller replaces it. Every topology swap goes through here so a field
// added to the struct is carried everywhere or nowhere.
func (t *topology) clone() *topology {
	nt := *t
	nt.peers = make(map[core.PeerID]*peer, len(t.peers)+1)
	for id, p := range t.peers {
		nt.peers[id] = p
	}
	return &nt
}

// Cluster is a set of live peers animating a BATON overlay.
type Cluster struct {
	// fanout is the tree fanout m of the overlay the cluster animates,
	// adopted from the source network at construction; 2 is the paper's
	// binary protocol, larger values are the BATON* generalisation.
	// Immutable after NewCluster.
	fanout  int
	topo    atomic.Pointer[topology]
	wg      sync.WaitGroup
	done    chan struct{}
	stopped atomic.Bool
	msgs    msgCounter

	// routeMode selects the entry path of singleton Get/Put/Delete requests
	// (RouteOverlay or RouteDirect — see routecache.go). Stale direct
	// routes are counted per detecting peer in the metrics registry;
	// Cluster.StaleRoutes sums them.
	routeMode atomic.Int32

	// The flight recorder (see metrics.go): sampler decides which requests
	// carry a trace, traces retains the completed ones, journal records
	// structural operations, and retired accumulates the counters of peers
	// that have been reaped from the topology so cluster totals stay
	// monotonic. curEvent is the journal entry of the structural operation
	// in progress; guarded by memberMu.
	sampler  obs.Sampler
	traces   *obs.TraceRing
	journal  *obs.Journal
	retired  *obs.PeerMetrics
	curEvent *obs.Event

	// plans counts the query layer's serial vs parallel decisions
	// (query.go) for Metrics.
	plans obs.PlanCounters

	// autoRecover and suspects feed the opt-in background repairer (see
	// recovery.go): routing paths that observe a dead responsible peer
	// report it, and the repairer runs Recover on it.
	autoRecover atomic.Bool
	suspects    chan core.PeerID

	// autoBalance marks the opt-in background balancer as started and
	// balanceEvents counts its successful actions; loadMu guards the
	// request-rate EWMA state Loads maintains between calls (loadmanager.go).
	autoBalance   atomic.Bool
	balanceEvents atomic.Int64
	loadMu        sync.Mutex
	loadLastAt    time.Time
	loadLastReqs  map[core.PeerID]int64
	loadRates     map[core.PeerID]float64

	// memberMu serialises structural operations — Join, Depart,
	// LoadBalance, Kill, Snapshot — against each other, the live
	// counterpart of the paper's serialisation of restructuring around the
	// affected region. Data traffic never takes it.
	memberMu sync.Mutex
	// mirror is the data-less structural authority: the same core.Network
	// logic that the simulator runs, kept in lockstep with the live peers.
	// Guarded by memberMu.
	mirror *core.Network
	// states caches the mirror's per-peer snapshot from after the last
	// structural operation; membership diffs are computed against it.
	states map[core.PeerID]core.PeerSnapshot
	// tombstones lists departed peers not yet retired. Guarded by memberMu.
	tombstones []*peer
	domain     keyspace.Range

	// net, when non-nil, is the node's connection to the rest of a
	// multi-process overlay (see node.go); nil for in-process clusters,
	// and every wire hook on the data path is gated on that nil check.
	// spawnAt, while a remote-requested join runs (guarded by memberMu),
	// redirects applyMirrorDiffLocked's phase-1 spawn to that node.
	net     *netLayer
	spawnAt transport.NodeID
}

// NewCluster builds a live cluster from a snapshot of the given simulated
// network: every peer's position, range, links and stored items are copied
// and a goroutine is started per peer. The network is consumed at this
// point in time; subsequent membership changes happen through the cluster's
// own Join and Depart.
func NewCluster(nw *core.Network) *Cluster {
	c := &Cluster{
		fanout:   nw.Fanout(),
		done:     make(chan struct{}),
		domain:   nw.Domain(),
		suspects: make(chan core.PeerID, 64),
		traces:   obs.NewTraceRing(traceRingSize),
		journal:  obs.NewJournal(journalSize),
		retired:  obs.NewPeerMetrics(numKinds),
	}
	snapshot := core.Snapshot(nw)
	t := &topology{
		peers:   make(map[core.PeerID]*peer),
		members: make(map[core.PeerID]bool),
	}
	t.epoch = 1
	for _, ps := range snapshot {
		p := newPeer(ps.ID, c.fanout)
		p.pos = ps.Position
		p.rng = ps.Range
		p.data.Absorb(ps.Items)
		p.noteItems()
		p.alive.Store(true)
		t.peers[p.id] = p
		t.members[p.id] = true
		t.ring = append(t.ring, ringEntry{id: p.id, lower: p.rng.Lower, p: p})
		t.ids = append(t.ids, p.id)
	}
	sort.Slice(t.ring, func(i, j int) bool { return t.ring[i].lower < t.ring[j].lower })
	sort.Slice(t.ids, func(i, j int) bool { return t.ids[i] < t.ids[j] })
	// Wire the links after all peers exist.
	for _, ps := range snapshot {
		p := t.peers[ps.ID]
		p.parent = toLink(t.peers, ps.Parent)
		for s, cid := range ps.ChildSlots() {
			p.children[s] = toLink(t.peers, cid)
		}
		p.adjacent[0] = toLink(t.peers, ps.LeftAdjacent)
		p.adjacent[1] = toLink(t.peers, ps.RightAdjacent)
		for _, id := range ps.LeftRouting {
			p.rt[0] = append(p.rt[0], toLink(t.peers, id))
		}
		for _, id := range ps.RightRouting {
			p.rt[1] = append(p.rt[1], toLink(t.peers, id))
		}
	}
	t.hopCap = 8 * (len(snapshot) + 4)
	c.topo.Store(t)

	// The structural mirror keeps positions, ranges and links but no data:
	// the live peers own the items, and migrations move the real thing.
	mirrorSnaps := make([]core.PeerSnapshot, len(snapshot))
	for i, ps := range snapshot {
		ps.Items = nil
		mirrorSnaps[i] = ps
	}
	mirror, err := core.FromSnapshot(c.domain, mirrorSnaps)
	if err != nil {
		panic(fmt.Sprintf("p2p: network snapshot is not a valid overlay: %v", err))
	}
	c.mirror = mirror
	c.states = snapshotMap(mirrorSnaps)

	for _, p := range t.peers {
		c.wg.Add(1)
		go c.serve(p)
	}
	// Seed the fault-tolerance layer: every peer ships its items to its
	// replica holder before the cluster is handed to clients, so a crash is
	// recoverable from the first request on.
	c.memberMu.Lock()
	c.resyncReplicas(nil)
	c.memberMu.Unlock()
	return c
}

// traceRingSize and journalSize bound the flight recorder's memory: the
// most recent completed traces and structural events are retained, older
// ones are evicted.
const (
	traceRingSize = 256
	journalSize   = 512
)

// newPeer builds a peer object with every always-present field
// initialised — the single place the per-peer metrics block is attached,
// so a delivery target can never lack one.
func newPeer(id core.PeerID, fanout int) *peer {
	return &peer{
		id:        id,
		fanout:    fanout,
		children:  make([]*link, fanout),
		data:      store.New(),
		inbox:     make(chan request, 256),
		spillWake: make(chan struct{}, 1),
		quit:      make(chan struct{}),
		met:       obs.NewPeerMetrics(numKinds),
	}
}

// toLink builds a link to the peer with the given ID using its current
// range, or nil for NoPeer / unknown IDs.
func toLink(peers map[core.PeerID]*peer, id core.PeerID) *link {
	if id == core.NoPeer {
		return nil
	}
	t, ok := peers[id]
	if !ok {
		return nil
	}
	return &link{id: id, lower: t.rng.Lower, upper: t.rng.Upper}
}

// snapshotMap indexes per-peer snapshots by peer ID.
func snapshotMap(snaps []core.PeerSnapshot) map[core.PeerID]core.PeerSnapshot {
	out := make(map[core.PeerID]core.PeerSnapshot, len(snaps))
	for _, ps := range snaps {
		out[ps.ID] = ps
	}
	return out
}

// Size returns the number of member peers in the cluster (dead or alive;
// gracefully departed peers are not members).
func (c *Cluster) Size() int { return len(c.topo.Load().ids) }

// Messages returns the total number of peer-to-peer messages delivered.
func (c *Cluster) Messages() int64 { return c.msgs.total() }

// msgCounter counts delivered messages across cache-line-padded shards so
// that concurrent deliveries to different peers do not all serialise on one
// atomic word — with hundreds of client goroutines the single cluster-wide
// counter is a measurable contention hot spot. Deliveries to the same peer
// hash to the same shard, which is the contention the inbox already imposes.
type msgCounter struct {
	shards [msgShardCount]struct {
		n atomic.Int64
		_ [56]byte // pad to a 64-byte cache line
	}
}

const msgShardCount = 32

func (m *msgCounter) add(slot uint64) { m.shards[slot%msgShardCount].n.Add(1) }

func (m *msgCounter) total() int64 {
	var t int64
	for i := range m.shards {
		t += m.shards[i].n.Load()
	}
	return t
}

// Domain returns the key domain the cluster partitions.
func (c *Cluster) Domain() keyspace.Range { return c.domain }

// PeerIDs returns the IDs of all member peers in ascending order.
func (c *Cluster) PeerIDs() []core.PeerID {
	ids := c.topo.Load().ids
	out := make([]core.PeerID, len(ids))
	copy(out, ids)
	return out
}

// Kill stops the given peer abruptly: its goroutine keeps draining the
// inbox (so senders never block) but answers every queued or future data
// request with ErrOwnerDown, and every new request addressed to it fails
// over to an alternative path at the sender, exactly like an unreachable
// address. The crashed process's stores — its own items and any replicas it
// held for other peers — are wiped, so nothing recovery later reads can
// come from the dead peer itself. The peer's range stays assigned to it,
// and ErrOwnerDown keeps being returned for it, until Recover (or the
// background repairer started by StartAutoRecover) repairs the structure
// and restores the range from the surviving replica at the adjacent peer —
// see recovery.go. Kill serialises with membership changes so a migration's
// source or destination can never die mid-handoff.
func (c *Cluster) Kill(id core.PeerID) (err error) {
	if err := c.requireCoordinator(); err != nil {
		return err
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	c.journalBegin("kill", id)
	defer func() { c.journalEnd(err) }()
	t := c.topo.Load()
	p := t.peers[id]
	if p == nil || !t.members[id] {
		return fmt.Errorf("%w: %d", ErrUnknownPeer, id)
	}
	p.alive.Store(false)
	// The wipe runs in the peer's own goroutine (its stores are owned
	// there) and is acknowledged, so when Kill returns the data is provably
	// gone — a recovery that cheats by reading the dead peer's store would
	// fail the crash tests instead of silently passing.
	ch := make(chan response, 1)
	if c.sendAny(id, request{kind: kindCrash, reply: ch}) {
		select {
		case <-ch:
		case <-c.done:
			return ErrStopped
		}
	}
	if c.net != nil {
		// Same epoch, updated alive flag: other nodes' stubs for the dead
		// peer must start refusing sends just like this node's did.
		c.net.broadcastTopoLocked(c)
	}
	return nil
}

// peerByID returns the live peer object for direct inspection (tests only;
// a peer's non-atomic fields are owned by its goroutine while traffic runs).
func (c *Cluster) peerByID(id core.PeerID) *peer { return c.topo.Load().peers[id] }

// Alive reports whether the given peer is up.
func (c *Cluster) Alive(id core.PeerID) bool {
	p, ok := c.topo.Load().peers[id]
	return ok && p.alive.Load()
}

// Stop shuts the cluster down and waits for every peer goroutine to exit.
// It is safe to call concurrently with in-flight requests and membership
// changes (they complete or return ErrStopped) and is idempotent. Inboxes
// are never closed — shutdown is broadcast on c.done — so a concurrent send
// can never panic.
func (c *Cluster) Stop() {
	c.memberMu.Lock()
	already := c.stopped.Swap(true)
	if !already {
		close(c.done)
	}
	c.memberMu.Unlock()
	if !already {
		if c.net != nil {
			// Unblock control RPCs first: the ctl worker is in the
			// WaitGroup and may be waiting on one.
			c.net.beginClose()
		}
		c.wg.Wait()
		if c.net != nil {
			c.net.finishClose()
		}
	}
}

// send delivers a request to the peer with the given ID. It reports false
// when the target is dead or the cluster is stopped. A full inbox never
// blocks the caller: the overflow is appended to the target's spill queue,
// which the serving goroutine drains alongside the inbox, so a peer
// goroutine can never block on another peer's inbox — a cycle of such sends
// is the classic message-system deadlock, and avoiding it is what keeps the
// "calls never block indefinitely" contract true under any client count.
// The spill append is a short critical section on the target's own lock, so
// delivery costs no goroutine spawn however saturated the peer is.
func (c *Cluster) send(to core.PeerID, req request) bool {
	return c.deliver(to, req, false)
}

// sendAny is send for membership control traffic: it delivers even to
// killed peers, whose recorded structure must keep tracking the overlay.
func (c *Cluster) sendAny(to core.PeerID, req request) bool {
	return c.deliver(to, req, true)
}

func (c *Cluster) deliver(to core.PeerID, req request, evenDead bool) bool {
	p, ok := c.topo.Load().peers[to]
	if !ok {
		return false
	}
	return c.deliverTo(p, req, evenDead)
}

// deliverTo is deliver for callers that already hold the peer object (the
// direct-routing fast path resolves the owner once from the ring and skips
// the second map lookup).
func (c *Cluster) deliverTo(p *peer, req request, evenDead bool) bool {
	if c.stopped.Load() {
		return false
	}
	if !evenDead && !p.alive.Load() {
		return false
	}
	if p.node != 0 {
		// A stub for a peer hosted on another node: hand the request to the
		// wire (same refusal semantics; the correlation machinery replaces
		// the reply channel). gone gates retired remote tombstones exactly
		// like local ones.
		if c.net == nil || p.gone.Load() {
			return false
		}
		return c.net.deliver(p, req, evenDead)
	}
	// The inflight count brackets the whole delivery so a tombstone is only
	// retired once provably no send can still land in its inbox or spill
	// queue; a delivery beginning after gone is set backs out, and its
	// caller fails over as if the peer were dead.
	p.inflight.Add(1)
	if p.gone.Load() {
		p.inflight.Add(-1)
		return false
	}
	// Deliveries to one peer are FIFO across the two lanes: once the spill
	// queue is non-empty every delivery appends behind it (even if the inbox
	// has drained room again), and the serving goroutine empties the inbox —
	// which then only holds older messages — before each spill batch. The
	// ordering matters beyond tidiness: replica deltas from one source rely
	// on it to apply in the order they were acknowledged (replication.go).
	req.enq = time.Now()
	overflow := false
	p.spillMu.Lock()
	if len(p.spill) > 0 {
		p.spill = append(p.spill, req)
		overflow = true
	} else {
		select {
		case p.inbox <- req:
		default:
			p.spill = append(p.spill, req)
			overflow = true
		}
	}
	if overflow {
		// Gauge updates ride the spillMu section already paid for the
		// append; a queue going non-empty starts the drain-latency clock.
		if len(p.spill) == 1 {
			p.spillSince = req.enq
		}
		p.met.SetSpillDepth(int64(len(p.spill)))
	}
	p.spillMu.Unlock()
	if overflow {
		// Nudge the serving goroutine; spillWake is buffered, so the nudge
		// never blocks and a wake already pending covers this append too.
		select {
		case p.spillWake <- struct{}{}:
		default:
		}
	}
	c.msgs.add(uint64(p.id))
	p.met.Delivered(int(req.kind))
	if overflow {
		p.met.Spilled(int(req.kind))
	}
	p.inflight.Add(-1)
	return true
}

// noteItems publishes the store's current size for the lock-free load
// meter (Cluster.Loads); called by the owning goroutine after every
// mutation of p.data.
func (p *peer) noteItems() { p.items.Store(int64(p.data.Len())) }

// takeSpill detaches and returns the current spill queue, recording the
// drain latency — how long the overflow sat queued before the serving
// goroutine picked it up — and resetting the spill-depth gauge.
func (p *peer) takeSpill() []request {
	p.spillMu.Lock()
	q := p.spill
	p.spill = nil
	if len(q) > 0 {
		p.met.ObserveSpillDrain(time.Since(p.spillSince).Nanoseconds())
		p.spillSince = time.Time{}
		p.met.SetSpillDepth(0)
	}
	p.spillMu.Unlock()
	return q
}

// Get looks up key starting at peer via. Under RouteDirect the request is
// sent straight to the key's owner instead (via is the fallback entry point
// when the route cache is stale — see routecache.go).
func (c *Cluster) Get(via core.PeerID, key keyspace.Key) ([]byte, bool, int, error) {
	resp, err := c.route(via, request{kind: kindGet, key: key})
	if err != nil {
		return nil, false, 0, err
	}
	return resp.value, resp.found, resp.hops, resp.err
}

// Put stores value under key starting at peer via (owner-direct under
// RouteDirect, like Get).
func (c *Cluster) Put(via core.PeerID, key keyspace.Key, value []byte) (int, error) {
	resp, err := c.route(via, request{kind: kindPut, key: key, value: value})
	if err != nil {
		return 0, err
	}
	return resp.hops, resp.err
}

// Delete removes key starting at peer via, reporting whether it existed
// (owner-direct under RouteDirect, like Get).
func (c *Cluster) Delete(via core.PeerID, key keyspace.Key) (bool, int, error) {
	resp, err := c.route(via, request{kind: kindDelete, key: key})
	if err != nil {
		return false, 0, err
	}
	return resp.found, resp.hops, resp.err
}

// Range returns every stored item with a key in r, starting at peer via.
// The query is routed to the peer owning r.Lower (phase 1) and from there
// fans out over the covering peers in parallel; the reported hop count is
// the longest message chain of the fan-out, i.e. the latency-determining
// path. Items are returned in key order. A dead peer inside the range
// yields the partial result together with ErrOwnerDown.
func (c *Cluster) Range(via core.PeerID, r keyspace.Range) ([]store.Item, int, error) {
	resp, err := c.issue(via, request{kind: kindRange, key: r.Lower, rng: r, par: true})
	if err != nil {
		return nil, 0, err
	}
	return resp.items, resp.hops, resp.err
}

// RangeSerial answers the range query by walking the right-adjacent chain
// one peer at a time, exactly as Section IV-B of the paper describes. It is
// kept as the baseline the parallel fan-out is benchmarked against; its
// latency grows linearly with the number of peers covering the range.
func (c *Cluster) RangeSerial(via core.PeerID, r keyspace.Range) ([]store.Item, int, error) {
	resp, err := c.issue(via, request{kind: kindRange, key: r.Lower, rng: r})
	if err != nil {
		return nil, 0, err
	}
	return resp.items, resp.hops, resp.err
}

// issue sends the request into the overlay via the given peer and waits for
// the answer. The wait also watches the cluster's done channel so a client
// can never block across Stop. Reply channels come from a pool: every
// request is answered exactly once, so a channel whose answer has been
// consumed is clean for reuse; a wait abandoned at Stop leaves its channel
// to the garbage collector instead of returning it, so a late answer can
// never surface under a later request.
func (c *Cluster) issue(via core.PeerID, req request) (response, error) {
	if c.stopped.Load() {
		return response{}, ErrStopped
	}
	if _, ok := c.topo.Load().peers[via]; !ok {
		return response{}, fmt.Errorf("%w: %d", ErrUnknownPeer, via)
	}
	req.reply = getReply()
	if !c.send(via, req) {
		putReply(req.reply)
		if c.stopped.Load() {
			return response{}, ErrStopped
		}
		c.suspect(via)
		return response{}, fmt.Errorf("%w: %d", ErrOwnerDown, via)
	}
	select {
	case resp := <-req.reply:
		putReply(req.reply)
		return resp, nil
	case <-c.done:
		//batonvet:ignore replypool abandoned on Stop by design: the late answer must not reach the pool (see the doc comment above)
		return response{}, ErrStopped
	}
}

// serve is the peer goroutine: it drains the inbox and handles or forwards
// each request. A killed peer keeps draining so senders never block, but
// handle refuses every data request with ErrOwnerDown — a request already
// queued when the peer died must still be answered or its client would hang
// forever. Control messages (structural updates, handoffs, snapshots, crash
// wipes) are handled even when dead, because a killed peer remains part of
// the overlay structure until recovery removes it.
func (c *Cluster) serve(p *peer) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-p.quit:
			// Retired tombstone: no new delivery can land (gone is set and
			// the in-flight count drained to zero before quit was closed),
			// so forward whatever is still queued — inbox and spill — and
			// exit.
			for {
				select {
				case req := <-p.inbox:
					if !c.send(p.departTo, req) {
						c.refuse(p, req, ErrOwnerDown)
					}
					continue
				default:
				}
				q := p.takeSpill()
				if len(q) == 0 {
					return
				}
				for _, req := range q {
					if !c.send(p.departTo, req) {
						c.refuse(p, req, ErrOwnerDown)
					}
				}
			}
		case req := <-p.inbox:
			c.dispatch(p, req)
		case <-p.spillWake:
			// Drain in FIFO order: everything in the inbox predates the
			// spill overflow (deliveries bypass the inbox while the spill
			// queue is non-empty), so empty the inbox before each spill
			// batch. The loop runs until the spill queue is observed empty;
			// a delivery that appends mid-drain leaves another wake pending,
			// so nothing is stranded.
			for {
				select {
				case req := <-p.inbox:
					c.dispatch(p, req)
					continue
				default:
				}
				q := p.takeSpill()
				if len(q) == 0 {
					break
				}
				for _, req := range q {
					c.dispatch(p, req)
				}
			}
		}
	}
}

// dispatch times one request through handle: the delivery stamp becomes
// the queue-wait sample, the handle duration (forwarding included) the
// handle-time sample, and a sampled request gets its hop appended —
// before handle runs, so the chain records peers in the order the
// message actually travelled (a forwarded request cannot reach the next
// peer before this peer's hop is on the trace). The hop's handle time is
// back-filled once known.
func (c *Cluster) dispatch(p *peer, req request) {
	start := time.Now()
	var wait int64
	if !req.enq.IsZero() {
		wait = start.Sub(req.enq).Nanoseconds()
	}
	p.met.ObserveQueueWait(wait)
	hop := -1
	if req.trace != nil {
		hop = req.trace.Append(obs.Hop{
			Peer:        int64(p.id),
			Kind:        req.kind.String(),
			Level:       p.pos.Level,
			QueueWaitNs: wait,
		})
	}
	c.handle(p, req)
	took := time.Since(start).Nanoseconds()
	p.met.ObserveHandle(took)
	if hop >= 0 {
		req.trace.SetHandleNs(hop, took)
	}
}

// refuse terminates a request with the given error, whichever completion
// path it uses: scatter sub-requests report into their collector, everything
// else answers on its reply channel. Fire-and-forget messages (replica
// updates) carry no reply channel and are simply dropped. The refusal is
// attributed to p — the peer at which the request died — in the metrics
// registry; client-side callers that refuse before any peer was involved
// pass nil.
func (c *Cluster) refuse(p *peer, req request, err error) {
	if p != nil {
		p.met.Refused(int(req.kind))
	}
	if req.coll != nil {
		req.coll.finish(req.rng.Lower, nil, req.hops, err)
		return
	}
	// A serial range walk carries everything collected so far in req.acc;
	// the client is promised the partial answer alongside the error, so it
	// must not be dropped here. respond answers the reply channel or the
	// wire correlation, and drops fire-and-forget requests (no waiter).
	c.respond(req, response{items: req.acc, hops: req.hops, err: err})
}

func (c *Cluster) handle(p *peer, req request) {
	req.hops++
	if req.hops > c.topo.Load().hopCap {
		c.refuse(p, req, ErrUnreachable)
		return
	}
	// Membership control first: these are addressed to this exact peer and
	// apply regardless of departure, death or pending handoffs.
	//batonvet:ignore kindexhaustive partial filter by design: every other kind falls through to the tombstone/aliveness checks below
	switch req.kind {
	case kindUpdate:
		c.applyUpdate(p, req)
		return
	case kindHandoff:
		c.applyHandoff(p, req)
		return
	case kindSnapshot:
		c.respond(req, response{snap: p.snapshot(), hops: req.hops})
		return
	case kindCrash:
		c.applyCrash(p, req)
		return
	}
	// A departed peer is a tombstone: stale routing state may still address
	// it, and everything it receives belongs to the peer that absorbed its
	// range now. This is checked before aliveness so a crashed peer that
	// recovery has repaired forwards stragglers instead of refusing them.
	if p.departed {
		if req.kind == kindReplicaFetch {
			// Exception: a tombstone still holds the replica sets it
			// accumulated as a holder, and for a dead source they are the
			// only surviving copy — the peer that absorbed the tombstone's
			// range never held them, so forwarding the fetch would answer
			// with an empty set and the dead range's data would be lost.
			c.respond(req, response{items: p.replicaFor(req.src).Items(), hops: req.hops})
			return
		}
		if !c.send(p.departTo, req) {
			c.refuse(p, req, ErrOwnerDown)
		}
		return
	}
	// A killed peer refuses everything else: its data is gone, and replicas
	// it pretended to accept would be silently lost.
	if !p.alive.Load() {
		c.refuse(p, req, ErrOwnerDown)
		return
	}
	// Requests touching a region whose items are still in flight are held
	// until the handoff lands; applyHandoff replays them.
	if p.touchesPending(req) {
		p.held = append(p.held, req)
		return
	}
	// Count data requests for the load meter: everything this peer serves
	// or forwards is work it performs (routing load included), which is
	// what the request-rate EWMA of Cluster.Loads reports. Counted after
	// the buffering check so a held request is tallied exactly once, when
	// its replay finally handles it — not once per buffer-and-replay round.
	//batonvet:ignore kindexhaustive partial filter by design: only data kinds feed the load meter
	switch req.kind {
	case kindGet, kindPut, kindDelete, kindRange, kindRangeScatter,
		kindBulkGet, kindBulkPut, kindBulkDelete, kindGetPred, kindRangePred:
		p.reqs.Add(1)
	}
	//batonvet:ignore kindexhaustive partial dispatch by design: control kinds returned above, singleton data kinds fall through to the owned-key switch below
	switch req.kind {
	case kindReplicate:
		c.applyReplicate(p, req)
		return
	case kindReplicaSync:
		c.applyReplicaSync(p, req)
		return
	case kindReplicaDrop:
		delete(p.replicas, req.src)
		return
	case kindReplicaResync:
		c.handleReplicaResync(p, req)
		return
	case kindReplicaFetch:
		c.respond(req, response{items: p.replicaFor(req.src).Items(), hops: req.hops})
		return
	case kindReplicaDump:
		c.handleReplicaDump(p, req)
		return
	case kindJoinLocate:
		c.handleJoinLocate(p, req)
		return
	case kindFindReplacement:
		c.handleFindReplacement(p, req)
		return
	case kindStats:
		c.respond(req, response{count: p.data.Len(), hops: req.hops})
		return
	case kindSplitKey:
		k, ok := p.data.KeyAtFraction(req.frac)
		c.respond(req, response{splitKey: k, found: ok, hops: req.hops})
		return
	case kindRange, kindRangePred:
		c.handleRange(p, req)
		return
	case kindRangeScatter:
		if p.rng.Contains(req.rng.Lower) || c.ownsExtreme(p, req.rng.Lower) {
			c.scatterAt(p, req.rng, req.hops, req.coll)
		} else {
			// The scatter was addressed with routing state that went stale
			// across a membership change: re-route it to the segment's
			// current owner like any exact query.
			c.forward(p, req)
		}
		return
	case kindBulkGet, kindBulkPut, kindBulkDelete:
		c.handleBulk(p, req)
		return
	}
	if p.rng.Contains(req.key) || c.ownsExtreme(p, req.key) {
		switch req.kind {
		case kindGet:
			v, ok := p.data.Get(req.key)
			c.respond(req, response{value: v, found: ok, hops: req.hops})
		case kindGetPred:
			// Pushdown: the predicate is evaluated here at the owner, so a
			// non-matching value never crosses the wire. Found reports
			// "present and matching" — the client asked a filtered question.
			v, ok := p.data.Get(req.key)
			if ok && !req.pred.Match(req.key, v) {
				v, ok = nil, false
			}
			c.respond(req, response{value: v, found: ok, hops: req.hops})
		case kindPut:
			p.data.Put(req.key, req.value)
			p.noteItems()
			c.replicateWrite(p, []store.Item{{Key: req.key, Value: req.value}}, nil)
			c.respond(req, response{hops: req.hops})
		case kindDelete:
			ok := p.data.Delete(req.key)
			if ok {
				p.noteItems()
				c.replicateWrite(p, nil, []keyspace.Key{req.key})
			}
			c.respond(req, response{found: ok, hops: req.hops})
		default:
			// Every kind that can reach the owner must answer here: a silent
			// return would leave the client blocked on its reply channel
			// forever. A kind added to the dispatch above but not to this
			// switch lands on this arm and fails loudly instead.
			c.refuse(p, req, fmt.Errorf("p2p: unhandled request kind %d at owning peer", req.kind))
		}
		return
	}
	if req.epoch != 0 {
		// A direct-routed request reached a peer that does not own its key.
		// Validate the tag against the live epoch to pick the recovery: a
		// tag from an older publication means the sender's ring was stale,
		// so the current ring is strictly newer information — re-aim the
		// request at the owner it names, one extra hop instead of a per-hop
		// walk. A current tag means the miss races an in-flight publication
		// (this peer's range moved before the new ring went out), so the
		// ring that just missed cannot help; fall through to classic
		// overlay forwarding. Either way the request degrades to a plain
		// overlay request (epoch cleared), so a second miss walks per-hop
		// and no re-aim loop is possible.
		t := c.topo.Load()
		stale := req.epoch != t.epoch
		req.epoch = 0
		p.met.StaleRoute()
		if stale {
			if e := t.entryOf(req.key); e != nil && e.p != p && e.p.alive.Load() && c.deliverTo(e.p, req, false) {
				return
			}
		}
	}
	c.forward(p, req)
}

// touchesPending reports whether the request reads or writes a key region
// this peer owns but has not yet received the items for.
func (p *peer) touchesPending(req request) bool {
	if len(p.pending) == 0 {
		return false
	}
	//batonvet:ignore kindexhaustive partial filter by design: only key- and range-addressed kinds can touch a pending region
	switch req.kind {
	case kindGet, kindPut, kindDelete, kindGetPred:
		for _, r := range p.pending {
			if r.Contains(req.key) {
				return true
			}
		}
	case kindRange, kindRangeScatter, kindRangePred:
		for _, r := range p.pending {
			if r.Intersects(req.rng) {
				return true
			}
		}
	case kindBulkGet, kindBulkPut, kindBulkDelete:
		for _, r := range p.pending {
			for _, it := range req.bulk {
				if r.Contains(it.Key) {
					return true
				}
			}
		}
	}
	return false
}

// ownsExtreme mirrors the simulator's rule that the leftmost and rightmost
// peers are responsible for keys outside the domain.
func (c *Cluster) ownsExtreme(p *peer, key keyspace.Key) bool {
	if key < p.rng.Lower && p.adjacent[0] == nil {
		return true
	}
	if key >= p.rng.Upper && p.adjacent[1] == nil {
		return true
	}
	return false
}

// forward applies the search_exact forwarding rule and fails over across the
// candidate list when targets are dead, avoiding peers the request has
// already visited unless no other alternative remains.
func (c *Cluster) forward(p *peer, req request) {
	if req.visited == nil {
		req.visited = make(map[core.PeerID]bool)
	}
	req.visited[p.id] = true
	cands := c.candidates(p, req.key)
	// If the peer responsible for the key is among the candidates but is
	// down, the data is unavailable: answer immediately instead of wandering
	// (the simulator applies the same rule).
	for _, cand := range cands {
		if cand != nil && cand.lower <= req.key && req.key < cand.upper && !c.Alive(cand.id) {
			c.suspect(cand.id)
			c.refuse(p, req, ErrOwnerDown)
			return
		}
	}
	for _, cand := range cands {
		if cand == nil || req.visited[cand.id] {
			continue
		}
		if c.send(cand.id, req) {
			return
		}
	}
	// Every unvisited candidate is dead: back out of the dead region through
	// an already-visited peer, chosen at random. A deterministic choice here
	// can bounce the request around the same closed orbit until the hop cap
	// even though a detour exists; randomising the escape makes the walk
	// ergodic, so with the generous hop cap the request finds any alive
	// route that exists.
	alive := cands[:0]
	for _, cand := range cands {
		if cand != nil && c.Alive(cand.id) {
			alive = append(alive, cand)
		}
	}
	for _, i := range rand.Perm(len(alive)) {
		if c.send(alive[i].id, req) {
			return
		}
	}
	c.refuse(p, req, ErrUnreachable)
}

// candidates lists forwarding targets for key at p, best first. The ordering
// mirrors core's hopCandidates exactly — the deterministic trace tests pin
// the live hop sequence against core.RoutePath at every fanout, so the two
// implementations must make identical choices on a healthy cluster: the
// farthest non-overshooting routing-table entry first, then the child
// subtree(s) on the key's side of the in-order chain and the adjacent link,
// then the parent, overshooting entries and the links towards the other side
// as fault-tolerance fallbacks.
func (c *Cluster) candidates(p *peer, key keyspace.Key) []*link {
	var out []*link
	last := len(p.children) - 1
	if key >= p.rng.Upper {
		rt := p.rt[1]
		for i := len(rt) - 1; i >= 0; i-- {
			if rt[i] != nil && rt[i].lower <= key {
				out = append(out, rt[i])
			}
		}
		// Only the last child subtree lies above p in the in-order chain.
		out = append(out, p.children[last], p.adjacent[1], p.parent)
		for i := len(rt) - 1; i >= 0; i-- {
			if rt[i] != nil && rt[i].lower > key {
				out = append(out, rt[i])
			}
		}
		for s := last - 1; s >= 0; s-- {
			out = append(out, p.children[s])
		}
		out = append(out, p.adjacent[0])
		out = append(out, p.rt[0]...)
	} else {
		rt := p.rt[0]
		for i := len(rt) - 1; i >= 0; i-- {
			if rt[i] != nil && rt[i].upper > key {
				out = append(out, rt[i])
			}
		}
		// Child subtrees in slots 0..last-1 all lie below p in the in-order
		// chain, nearest (highest slot) first.
		for s := last - 1; s >= 0; s-- {
			out = append(out, p.children[s])
		}
		out = append(out, p.adjacent[0], p.parent)
		for i := len(rt) - 1; i >= 0; i-- {
			if rt[i] != nil && rt[i].upper <= key {
				out = append(out, rt[i])
			}
		}
		out = append(out, p.children[last], p.adjacent[1])
		out = append(out, p.rt[1]...)
	}
	return out
}

// handleRange implements the two phases of a range query (Section IV-B):
// the request is first routed like an exact query towards the range's lower
// bound; once a peer responsible for it is reached, the range is answered
// either by the serial adjacent-chain walk below or by the parallel fan-out
// in range_fanout.go, depending on req.par.
func (c *Cluster) handleRange(p *peer, req request) {
	r := req.rng
	owns := p.rng.Contains(r.Lower) || c.ownsExtreme(p, r.Lower)
	if !owns {
		// Phase 1: still locating the peer responsible for the range's lower
		// bound (req.key == r.Lower). Stopping at any merely-intersecting
		// peer would skip the beginning of the range.
		c.forward(p, req)
		return
	}
	if req.par {
		// Phase 2, parallel: become the fan-out coordinator. A streaming
		// query (Cluster.RangeIter) built its collector client-side so the
		// channel-backed sink and the pushdown predicate travel with the
		// request; a materialising query's collector is created here.
		coll := req.coll
		if coll == nil {
			coll = &collector{reply: req.reply, pred: req.pred}
			if req.reply == nil && req.rcorr != 0 && c.net != nil {
				// The client sits on another node: the gathered answer goes
				// back over the wire to its correlation.
				coll.wire = &wireDest{n: c.net, node: req.rnode, corr: req.rcorr}
			}
			coll.grow(1)
		}
		c.scatterAt(p, r, req.hops, coll)
		return
	}
	// Phase 2, serial: collect locally and continue rightwards. The
	// accumulator is grown once per peer with a CountRange pre-pass
	// (store.ScanAppend) instead of appending an unsized Scan result; a
	// pushdown predicate is evaluated here so filtered-out items never
	// travel down the chain.
	if p.rng.Intersects(r) {
		if req.pred == nil {
			req.acc = p.data.ScanAppend(req.acc, r)
		} else {
			req.acc = scanFiltered(p.data, req.acc, r, req.pred)
		}
	}
	if lim := req.pred.LimitOrZero(); lim > 0 && len(req.acc) >= lim {
		// Limit-aware early termination: the pushdown limit is satisfied,
		// so answer now instead of walking the rest of the chain.
		c.respond(req, response{items: req.acc[:lim], hops: req.hops})
		return
	}
	next := p.adjacent[1]
	if next == nil || next.lower >= r.Upper {
		c.respond(req, response{items: req.acc, hops: req.hops})
		return
	}
	// Trim the still-uncovered part of the range so the next peer (whose
	// range starts exactly where this one ends) recognises itself as
	// responsible and keeps walking the chain instead of routing back.
	if p.rng.Upper > req.rng.Lower {
		req.rng.Lower = p.rng.Upper
		req.key = req.rng.Lower
	}
	if c.send(next.id, req) {
		return
	}
	// The right adjacent peer is dead: answer with what has been collected
	// so far and flag the dead link to the background repairer if one runs.
	c.suspect(next.id)
	c.respond(req, response{items: req.acc, hops: req.hops, err: ErrOwnerDown})
}
