// The multi-process face of the cluster: netLayer carries the p2p protocol
// over a transport.Transport so one overlay can span several OS processes
// ("nodes"). Peers hosted by this process are served exactly as before —
// the channel/spill fast path never builds a frame — while peers hosted
// elsewhere appear locally as *stubs*: peer objects with node != 0 and no
// goroutine, whose deliveries detour through netLayer.deliver onto the
// wire.
//
// # Correlation
//
// Reply channels cannot cross a process boundary. A request that expects an
// answer acquires an entry in the origin node's correlation table
// (acquireCorr) and travels with the entry's ID in the frame header; the
// node that finally serves it wire-replies to the frame's Origin with the
// same ID, and the origin releases the entry (releaseCorr) and runs its
// completion — a channel send, a range-collector contribution, or a
// pass-through to yet another node's correlation. Entries are released
// exactly once: on response arrival, when the connection they depend on
// drops (completed with ErrOwnerDown, the failure retry layers already
// handle), or at Stop (ErrStopped). batonvet's replypool analyzer checks
// the acquire/release pairing.
//
// # Roles
//
// The node that built the overlay (NewClusterListen) is the *coordinator*
// (head): it owns the structural mirror, runs every membership operation,
// and broadcasts topology snapshots (ctlTopo) that the other nodes
// (daemons, via JoinRemote) apply to keep their stub tables current.
// Daemons host peers and serve data traffic; structural APIs on a daemon
// return ErrNotCoordinator.
package p2p

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"baton/internal/core"
	"baton/internal/keyspace"
	"baton/internal/obs"
	"baton/internal/transport"
)

// ErrNotCoordinator is returned by structural operations (Join, Depart,
// Kill, Recover, LoadBalance, ...) invoked on a node that is not the
// cluster's coordinator. Membership is centrally serialised at the head
// node, the live counterpart of the paper's serialisation of restructuring.
var ErrNotCoordinator = errors.New("p2p: structural operations run at the coordinator node")

// headNodeID is the coordinator's transport ID; daemons are assigned IDs
// from 2 during the hello handshake.
const headNodeID transport.NodeID = 1

// msgFlagAny is the transport-frame flag carrying sendAny's even-dead bit:
// membership control traffic must reach killed peers on remote nodes too,
// and the bit lives in the frame header rather than the payload because it
// is an instruction to the *delivery* at the receiving node, not part of
// the request.
const msgFlagAny = 1 << 0

// ctlOp is a control-plane opcode (first payload byte of a msgControl
// frame). A defined type so batonvet's kindexhaustive check covers the ctl
// worker's dispatch: adding an opcode without deciding how handleCtl treats
// it is a compile-time-silent, analysis-time-loud mistake.
type ctlOp byte

// Control-plane opcodes.
const (
	ctlReply ctlOp = iota + 1 // RPC completion, body = the reply
	ctlHello                  // daemon→head: body = daemon listen addr; reply = domain + fanout
	ctlJoin                   // daemon→head: body = peer count; reply = joined count
	ctlSpawn                  // head→daemon: create a hosted peer; reply = status byte
	ctlTopo                   // head→daemon broadcast: topology snapshot, no reply
	ctlLoads                  // head→daemon: reply = per-hosted-peer load counters
	ctlPush                   // local only: head ctl worker pushes topology to one node
)

// rpcTimeout bounds a control RPC: a wedged remote must not hang a
// structural operation forever (the join loop is the longest-running RPC).
const rpcTimeout = 30 * time.Second

// corrEntry is one outstanding wire request: the node whose connection the
// response depends on, and the completion to run when it arrives.
type corrEntry struct {
	node transport.NodeID
	fn   func(response)
}

// corrTable maps correlation IDs to completions. IDs are never reused
// (64-bit counter), so a late response for a released entry is dropped.
type corrTable struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]corrEntry
}

// acquireCorr registers a completion and returns its correlation ID.
// Package-level (not a method) so batonvet's replypool analyzer can pair
// acquire and release sites the same way it pairs getReply/putReply.
func acquireCorr(t *corrTable, node transport.NodeID, fn func(response)) uint64 {
	t.mu.Lock()
	t.next++
	id := t.next
	if t.m == nil {
		t.m = make(map[uint64]corrEntry)
	}
	t.m[id] = corrEntry{node: node, fn: fn}
	t.mu.Unlock()
	return id
}

// releaseCorr removes and returns the completion for id; ok is false when
// the entry was already released (response raced a connection drop).
func releaseCorr(t *corrTable, id uint64) (fn func(response), ok bool) {
	t.mu.Lock()
	e, found := t.m[id]
	if found {
		delete(t.m, id)
	}
	t.mu.Unlock()
	return e.fn, found
}

// sweep releases every entry (node == 0) or every entry depending on the
// given node, completing each with err — the wire counterpart of refusing
// a delivery.
func (t *corrTable) sweep(node transport.NodeID, err error) {
	var fns []func(response)
	t.mu.Lock()
	for id, e := range t.m {
		if node == 0 || e.node == node {
			fns = append(fns, e.fn)
			delete(t.m, id)
		}
	}
	t.mu.Unlock()
	for _, fn := range fns {
		fn(response{err: err})
	}
}

// ctlMsg is one queued control-plane message.
type ctlMsg struct {
	from transport.NodeID
	corr uint64
	op   ctlOp
	body []byte
}

// rpcResult completes one control RPC.
type rpcResult struct {
	body []byte
	err  error
}

// netLayer is a Cluster's connection to the rest of the multi-process
// overlay. Nil on a purely in-process cluster — every hook checks.
type netLayer struct {
	self     transport.NodeID
	isHead   bool
	headNode transport.NodeID // daemons: the node whose loss is fatal

	// trp and cval are set once during construction but read from
	// transport goroutines that may start before construction finishes,
	// so both are atomic.
	trp  atomic.Pointer[transport.TCP]
	cval atomic.Pointer[Cluster]

	corr corrTable

	// Control messages are decoded and applied on a dedicated worker
	// goroutine (registered in the cluster's WaitGroup) because they take
	// memberMu and issue RPCs — work a connection reader must never block
	// on. ctlReply frames bypass the queue: they complete RPCs the worker
	// itself may be blocked on.
	ctlMu   sync.Mutex
	ctlQ    []ctlMsg
	ctlWake chan struct{}

	pendMu   sync.Mutex
	pendNext uint64
	pending  map[uint64]chan rpcResult

	// Head: node IDs for dialers and the address table rebroadcast in
	// ctlTopo so daemons can dial each other for direct handoffs.
	assignNext atomic.Uint32
	addrMu     sync.Mutex
	nodeAddrs  map[transport.NodeID]string

	// done unblocks RPC waiters at shutdown; closed before the cluster's
	// WaitGroup is awaited so a ctl worker blocked in an RPC can exit.
	done     chan struct{}
	downOnce sync.Once

	// seedDown is closed (daemons only) when the connection to the head
	// drops — the daemon's signal that the cluster it belongs to is gone.
	seedDown chan struct{}
	seedOnce sync.Once
}

func newNetLayer(isHead bool) *netLayer {
	n := &netLayer{
		isHead:   isHead,
		headNode: headNodeID,
		ctlWake:  make(chan struct{}, 1),
		pending:  make(map[uint64]chan rpcResult),
		done:     make(chan struct{}),
		seedDown: make(chan struct{}),
	}
	if isHead {
		n.nodeAddrs = make(map[transport.NodeID]string)
		n.assignNext.Store(uint32(headNodeID))
	}
	return n
}

func (n *netLayer) cluster() *Cluster        { return n.cval.Load() }
func (n *netLayer) tr() *transport.TCP       { return n.trp.Load() }
func (n *netLayer) assign() transport.NodeID { return transport.NodeID(n.assignNext.Add(1)) }

// send is tr.Send with the not-yet-listening window covered.
func (n *netLayer) send(to transport.NodeID, m *transport.Msg) bool {
	tr := n.tr()
	return tr != nil && tr.Send(to, m)
}

// attach binds the netLayer to its cluster and starts the control worker.
func (n *netLayer) attach(c *Cluster) {
	c.net = n
	n.cval.Store(c)
	c.wg.Add(1)
	go n.ctlLoop(c)
}

// beginClose unblocks RPC waiters; called by Stop before waiting for the
// WaitGroup (the ctl worker may be inside an RPC).
func (n *netLayer) beginClose() {
	n.downOnce.Do(func() { close(n.done) })
}

// finishClose tears the transport down and fails everything outstanding;
// called by Stop after the WaitGroup drains.
func (n *netLayer) finishClose() {
	if tr := n.tr(); tr != nil {
		tr.Close()
	}
	n.corr.sweep(0, ErrStopped)
	n.failPending(0, ErrStopped)
}

func (n *netLayer) failPending(node transport.NodeID, err error) {
	var chs []chan rpcResult
	n.pendMu.Lock()
	for id, ch := range n.pending {
		_ = id
		chs = append(chs, ch)
		delete(n.pending, id)
	}
	n.pendMu.Unlock()
	for _, ch := range chs {
		ch <- rpcResult{err: err}
	}
}

// onPeerUp runs when a connection to another node is established. The head
// pushes its current topology so a (re)connecting daemon converges without
// waiting for the next structural operation; the push is queued to the ctl
// worker because it takes memberMu.
func (n *netLayer) onPeerUp(node transport.NodeID) {
	if !n.isHead {
		return
	}
	n.enqueueCtl(ctlMsg{from: node, op: ctlPush})
}

// onPeerDown fails every correlation and RPC that depended on the dropped
// connection with ErrOwnerDown — the exact error the retry and fail-over
// layers already handle for an in-process dead peer. A daemon losing its
// head connection also trips seedDown: the coordinator owns the overlay,
// so without it the daemon is an orphan (batond exits on this signal).
func (n *netLayer) onPeerDown(node transport.NodeID) {
	err := fmt.Errorf("%w: connection to node %d lost", ErrOwnerDown, node)
	n.corr.sweep(node, err)
	var chs []chan rpcResult
	n.pendMu.Lock()
	for id, ch := range n.pending {
		_ = id
		chs = append(chs, ch)
		delete(n.pending, id)
	}
	n.pendMu.Unlock()
	for _, ch := range chs {
		ch <- rpcResult{err: err}
	}
	if !n.isHead && node == n.headNode {
		n.seedOnce.Do(func() { close(n.seedDown) })
	}
}

// handleMsg is the transport inbound dispatch. It runs on connection
// reader goroutines and must not block; everything potentially slow is
// queued to the ctl worker or a peer inbox.
func (n *netLayer) handleMsg(from transport.NodeID, m *transport.Msg) {
	switch wireKind(m.Kind) {
	case msgRequest:
		n.inboundRequest(m)
	case msgResponse:
		n.inboundResponse(m)
	case msgControl:
		n.inboundControl(from, m)
	}
}

// deliver puts a request on the wire towards the node hosting stub p. It
// is deliverTo's remote tail: the same refusal semantics (false = not and
// never delivered), with reply channels and collectors swapped for
// correlation entries. Delivery and hop metrics are recorded at the origin
// against the stub, so Cluster.Messages and per-peer counters stay
// meaningful wherever the peer lives.
func (n *netLayer) deliver(p *peer, req request, evenDead bool) bool {
	c := n.cluster()
	if c == nil {
		return false
	}
	var m transport.Msg
	m.To = uint64(int64(p.id))
	m.Origin = n.self
	m.Kind = byte(msgRequest)
	if evenDead {
		m.Flags = msgFlagAny
	}

	// A kindUpdate's moves carry ack channels the destination peers answer
	// to; crossing the wire they become correlation entries at this (the
	// coordinating) node, and each move learns its destination's hosting
	// node so a remote source can deliver the handoff even before the
	// topology broadcast naming a freshly spawned destination reaches it.
	var corrs []uint64
	if req.kind == kindUpdate && len(req.moves) > 0 {
		moves := make([]handoffMove, len(req.moves))
		copy(moves, req.moves)
		for i := range moves {
			mv := &moves[i]
			mv.dstNode = n.nodeOf(c, mv.dst)
			if mv.ack != nil {
				ack := mv.ack
				mv.ackCorr = acquireCorr(&n.corr, mv.dstNode, func(r response) { ack <- r })
				mv.ackNode = n.self
				corrs = append(corrs, mv.ackCorr)
				mv.ack = nil
			}
		}
		req.moves = moves
	}

	switch {
	case req.reply != nil:
		ch := req.reply
		m.Corr = acquireCorr(&n.corr, p.node, func(r response) { ch <- r })
	case req.coll != nil:
		// A scatter branch leaving the node: the collector stays here and
		// the remote gathers its branch into a proxy (see inboundRequest),
		// wire-replying the branch total to this correlation. Streaming
		// collectors push into a bounded sink, which may block — never on
		// a connection reader, so those complete on a fresh goroutine.
		coll := req.coll
		lo := req.rng.Lower
		m.Corr = acquireCorr(&n.corr, p.node, func(r response) {
			if coll.sink != nil {
				go coll.finish(lo, r.items, r.hops, r.err)
			} else {
				coll.finish(lo, r.items, r.hops, r.err)
			}
		})
	case req.rcorr != 0:
		// Forwarding a request that originated on another node: pass the
		// origin's correlation through verbatim, so the final server
		// replies straight to the origin instead of retracing the route.
		m.Corr = req.rcorr
		m.Origin = req.rnode
	}
	m.Payload = encodeRequest(nil, &req)
	if !n.send(p.node, &m) {
		if req.reply != nil || req.coll != nil {
			releaseCorr(&n.corr, m.Corr)
		}
		for _, id := range corrs {
			releaseCorr(&n.corr, id)
		}
		return false
	}
	c.msgs.add(uint64(p.id))
	p.met.Delivered(int(req.kind))
	//batonvet:ignore replypool ownership crossed the wire: the response frame (or a connection-drop sweep) releases the entries
	return true
}

// nodeOf resolves the node hosting peer id; unknown and locally hosted
// peers map to this node.
func (n *netLayer) nodeOf(c *Cluster, id core.PeerID) transport.NodeID {
	if p := c.topo.Load().peers[id]; p != nil && p.node != 0 {
		return p.node
	}
	return n.self
}

// sendRequestTo ships a request to an explicitly named node, bypassing the
// local topology — the fallback for a handoff whose destination was
// spawned remotely and is not in this node's stub table yet.
func (n *netLayer) sendRequestTo(node transport.NodeID, id core.PeerID, req request, evenDead bool) bool {
	if node == 0 || node == n.self {
		return false
	}
	var m transport.Msg
	m.To = uint64(int64(id))
	m.Origin = n.self
	m.Kind = byte(msgRequest)
	if evenDead {
		m.Flags = msgFlagAny
	}
	if req.rcorr != 0 {
		m.Corr = req.rcorr
		m.Origin = req.rnode
	}
	m.Payload = encodeRequest(nil, &req)
	return n.send(node, &m)
}

// replyWire answers a wire request: complete the correlation locally when
// it lives in this node's own table (a request that crossed the wire and
// came back), otherwise send a response frame to the origin node.
func (n *netLayer) replyWire(node transport.NodeID, corr uint64, resp response) {
	if corr == 0 {
		return
	}
	if node == n.self || node == 0 {
		if fn, ok := releaseCorr(&n.corr, corr); ok {
			fn(resp)
		}
		return
	}
	m := transport.Msg{Corr: corr, Origin: n.self, Kind: byte(msgResponse), Payload: encodeResponse(nil, &resp)}
	n.send(node, &m)
}

// respond is the single completion point for handled requests: in-process
// requests answer on their reply channel (the untouched fast path), wire
// requests answer their origin's correlation, fire-and-forget requests
// have neither and are dropped.
func (c *Cluster) respond(req request, resp response) {
	if req.reply != nil {
		req.reply <- resp
		return
	}
	if req.rcorr != 0 && c.net != nil {
		c.net.replyWire(req.rnode, req.rcorr, resp)
	}
}

// inboundRequest injects a wire request into the local delivery path.
func (n *netLayer) inboundRequest(m *transport.Msg) {
	c := n.cluster()
	if c == nil || c.stopped.Load() {
		return
	}
	req, err := decodeRequest(m.Payload)
	if err != nil {
		// A malformed frame from a peer node: there is nothing safe to
		// deliver, but a correlated sender must not wait out the timeout.
		if m.Corr != 0 {
			n.replyWire(m.Origin, m.Corr, response{err: fmt.Errorf("%w: undecodable request", ErrUnreachable)})
		}
		return
	}
	req.rnode = m.Origin
	req.rcorr = m.Corr
	evenDead := m.Flags&msgFlagAny != 0
	t := c.topo.Load()
	p := t.peers[core.PeerID(int64(m.To))]
	if p == nil {
		n.failInbound(req, fmt.Errorf("%w: %d", ErrOwnerDown, core.PeerID(int64(m.To))))
		return
	}
	if p.node != 0 {
		// The sender's topology was stale: the peer is hosted elsewhere
		// (possibly back at the sender). Re-forward over the wire, charging
		// a hop so two nodes with disagreeing views cannot bounce a request
		// between them forever — the hop cap ends the orbit.
		req.hops++
		if req.hops > t.hopCap || !c.deliverTo(p, req, evenDead) {
			n.failInbound(req, fmt.Errorf("%w: %d", ErrOwnerDown, p.id))
		}
		return
	}
	if req.kind == kindCrash {
		// Kill crosses the wire: drop the alive flag at the hosting node
		// before the wipe is delivered, exactly as Kill does locally, so
		// concurrent sends fail over immediately.
		p.alive.Store(false)
	}
	if req.kind == kindRangeScatter && req.rcorr != 0 {
		// A scatter branch from another node: its collector stayed at the
		// origin. Gather the branch (and its recursive local sub-branches)
		// in a proxy collector that wire-replies the branch total.
		coll := &collector{wire: &wireDest{n: n, node: req.rnode, corr: req.rcorr}}
		coll.grow(1)
		req.coll = coll
		req.rcorr, req.rnode = 0, 0
	}
	if !c.deliverTo(p, req, evenDead) {
		n.failInbound(req, fmt.Errorf("%w: %d", ErrOwnerDown, p.id))
	}
}

// failInbound refuses a wire request that could not be delivered, through
// whichever completion it carries (mirrors Cluster.refuse).
func (n *netLayer) failInbound(req request, err error) {
	if req.coll != nil {
		req.coll.finish(req.rng.Lower, nil, req.hops, err)
		return
	}
	if req.rcorr != 0 {
		n.replyWire(req.rnode, req.rcorr, response{items: req.acc, hops: req.hops, err: err})
	}
}

// inboundResponse completes the correlation a response frame names.
func (n *netLayer) inboundResponse(m *transport.Msg) {
	resp, err := decodeResponse(m.Payload)
	if err != nil {
		resp = response{err: fmt.Errorf("%w: undecodable response", ErrUnreachable)}
	}
	if fn, ok := releaseCorr(&n.corr, m.Corr); ok {
		fn(resp)
	}
}

// wireDest is a collector's remote client: the origin-node correlation the
// gathered branch total is wire-replied to.
type wireDest struct {
	n    *netLayer
	node transport.NodeID
	corr uint64
}

func (w *wireDest) deliver(resp response) { w.n.replyWire(w.node, w.corr, resp) }

// inboundControl handles a control frame: RPC completions inline (the ctl
// worker itself may be blocked waiting for one), everything else queued to
// the worker.
func (n *netLayer) inboundControl(from transport.NodeID, m *transport.Msg) {
	if len(m.Payload) == 0 {
		return
	}
	op := ctlOp(m.Payload[0])
	body := m.Payload[1:]
	if op == ctlReply {
		n.pendMu.Lock()
		ch, ok := n.pending[m.Corr]
		if ok {
			delete(n.pending, m.Corr)
		}
		n.pendMu.Unlock()
		if ok {
			b := make([]byte, len(body))
			copy(b, body)
			ch <- rpcResult{body: b}
		}
		return
	}
	b := make([]byte, len(body))
	copy(b, body)
	n.enqueueCtl(ctlMsg{from: from, corr: m.Corr, op: op, body: b})
}

func (n *netLayer) enqueueCtl(msg ctlMsg) {
	n.ctlMu.Lock()
	n.ctlQ = append(n.ctlQ, msg)
	n.ctlMu.Unlock()
	select {
	case n.ctlWake <- struct{}{}:
	default:
	}
}

// ctlLoop is the control worker: it serialises control-plane work the
// connection readers must not block on (spawns, topology applies, joins).
func (n *netLayer) ctlLoop(c *Cluster) {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-n.ctlWake:
			for {
				n.ctlMu.Lock()
				q := n.ctlQ
				n.ctlQ = nil
				n.ctlMu.Unlock()
				if len(q) == 0 {
					break
				}
				for _, msg := range q {
					n.handleCtl(c, msg)
				}
			}
		}
	}
}

func (n *netLayer) handleCtl(c *Cluster, msg ctlMsg) {
	switch msg.op {
	case ctlReply:
		// Completed inline in inboundControl, before the queue — a queued
		// one means a reply raced Stop's pending-RPC drain; nothing waits
		// for it any more.
		return
	case ctlHello:
		if !n.isHead {
			return
		}
		r := wreader{b: msg.body}
		addr := string(r.bytes())
		if r.done() && addr != "" {
			n.addrMu.Lock()
			n.nodeAddrs[msg.from] = addr
			n.addrMu.Unlock()
			if tr := n.tr(); tr != nil {
				tr.SetAddr(msg.from, addr)
			}
		}
		b := appendRange(nil, c.domain)
		b = appendU32(b, uint32(c.fanout))
		n.ctlReplyTo(msg, b)
	case ctlJoin:
		if !n.isHead {
			return
		}
		r := wreader{b: msg.body}
		count := int(r.u32())
		if !r.done() || count < 0 {
			return
		}
		joined := 0
		for i := 0; i < count; i++ {
			if _, err := c.joinAt(msg.from); err != nil {
				break
			}
			joined++
		}
		n.ctlReplyTo(msg, appendU32(nil, uint32(joined)))
	case ctlSpawn:
		if n.isHead {
			return
		}
		status := byte(0)
		if c.applySpawn(msg.body) {
			status = 1
		}
		n.ctlReplyTo(msg, []byte{status})
	case ctlTopo:
		if n.isHead {
			return
		}
		c.applyTopoBroadcast(msg.body)
	case ctlLoads:
		if n.isHead {
			return
		}
		n.ctlReplyTo(msg, c.encodeLocalLoads())
	case ctlPush:
		if !n.isHead {
			return
		}
		c.memberMu.Lock()
		if !c.stopped.Load() {
			n.send(msg.from, &transport.Msg{Kind: byte(msgControl), Origin: n.self, Payload: n.encodeTopoLocked(c)})
		}
		c.memberMu.Unlock()
	}
}

func (n *netLayer) ctlReplyTo(msg ctlMsg, body []byte) {
	if msg.corr == 0 {
		return
	}
	payload := append([]byte{byte(ctlReply)}, body...)
	n.send(msg.from, &transport.Msg{Corr: msg.corr, Origin: n.self, Kind: byte(msgControl), Payload: payload})
}

// rpc sends one control request and waits for its ctlReply.
func (n *netLayer) rpc(node transport.NodeID, op ctlOp, body []byte) ([]byte, error) {
	ch := make(chan rpcResult, 1)
	n.pendMu.Lock()
	n.pendNext++
	id := n.pendNext
	n.pending[id] = ch
	n.pendMu.Unlock()
	payload := append([]byte{byte(op)}, body...)
	if !n.send(node, &transport.Msg{Corr: id, Origin: n.self, Kind: byte(msgControl), Payload: payload}) {
		n.dropPendingRPC(id)
		return nil, fmt.Errorf("%w: node %d", ErrUnreachable, node)
	}
	timer := time.NewTimer(rpcTimeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.body, res.err
	case <-n.done:
		n.dropPendingRPC(id)
		return nil, ErrStopped
	case <-timer.C:
		n.dropPendingRPC(id)
		return nil, fmt.Errorf("p2p: control rpc %d to node %d timed out: %w", op, node, ErrUnreachable)
	}
}

func (n *netLayer) dropPendingRPC(id uint64) {
	n.pendMu.Lock()
	delete(n.pending, id)
	n.pendMu.Unlock()
}

// joinAt runs one Join with the spawn redirected to the given node: the
// mirror's structural decision is unchanged, but the new peer's serve
// goroutine starts on the daemon that asked (ctlSpawn) instead of here.
func (c *Cluster) joinAt(node transport.NodeID) (core.PeerID, error) {
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return core.NoPeer, ErrStopped
	}
	via := core.NoPeer
	for _, e := range c.topo.Load().ring {
		if e.p.alive.Load() {
			via = e.id
			break
		}
	}
	if via == core.NoPeer {
		return core.NoPeer, fmt.Errorf("p2p: no alive peer to join via: %w", ErrUnreachable)
	}
	c.journalBegin("join-remote", core.NoPeer)
	c.spawnAt = node
	id, err := c.joinLocked(via)
	c.spawnAt = 0
	c.journalSetPeer(id)
	c.journalEnd(err)
	return id, err
}

// spawnRemote creates the new peer on its hosting daemon (phase 1 of
// applyMirrorDiffLocked when c.spawnAt is set): a synchronous ctlSpawn RPC, so
// the peer is provably serving — buffering its pending regions — before
// any handoff is addressed to it.
func (n *netLayer) spawnRemote(node transport.NodeID, id core.PeerID, st *peerState, gains []keyspace.Range) error {
	body := appendPeerID(nil, id)
	body = appendState(body, st)
	body = appendRanges(body, gains)
	rep, err := n.rpc(node, ctlSpawn, body)
	if err != nil {
		return err
	}
	if len(rep) != 1 || rep[0] != 1 {
		return fmt.Errorf("p2p: node %d failed to spawn peer %d: %w", node, id, ErrUnreachable)
	}
	return nil
}

// applySpawn (daemon) creates a locally hosted peer from a ctlSpawn body.
func (c *Cluster) applySpawn(body []byte) bool {
	r := wreader{b: body}
	id := r.peerID()
	st := r.state()
	gains := r.ranges()
	if !r.done() || st == nil {
		return false
	}
	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return false
	}
	t := c.topo.Load()
	if t.peers[id] != nil {
		return false
	}
	p := newPeer(id, c.fanout)
	p.installState(st)
	p.pending = gains
	p.alive.Store(true)
	nt := t.clone()
	nt.peers[id] = p
	// Registered for delivery but not yet a member: the topology broadcast
	// that follows the coordinator's structural operation publishes
	// membership, exactly like publishTopology does locally.
	c.topo.Store(nt)
	c.wg.Add(1)
	go c.serve(p)
	return true
}

// encodeTopoLocked (head, memberMu held) renders the current composition
// as a ctlTopo payload: epoch, members with hosting node / range / alive
// flag, and the node address table daemons use to dial each other.
func (n *netLayer) encodeTopoLocked(c *Cluster) []byte {
	t := c.topo.Load()
	b := []byte{byte(ctlTopo)}
	b = appendU64(b, t.epoch)
	b = appendU32(b, uint32(len(t.ids)))
	for _, id := range t.ids {
		p := t.peers[id]
		node := p.node
		if node == 0 {
			node = n.self
		}
		rng := c.states[id].Range
		b = appendPeerID(b, id)
		b = appendU32(b, uint32(node))
		b = appendRange(b, rng)
		b = appendBool(b, p.alive.Load())
	}
	n.addrMu.Lock()
	b = appendU32(b, uint32(len(n.nodeAddrs)+1))
	b = appendU32(b, uint32(n.self))
	b = appendBytes(b, []byte(n.tr().Addr()))
	for node, addr := range n.nodeAddrs {
		b = appendU32(b, uint32(node))
		b = appendBytes(b, []byte(addr))
	}
	n.addrMu.Unlock()
	return b
}

// broadcastTopoLocked pushes the current composition to every connected
// node; the head calls it (memberMu held) after every publishTopology and
// after Kill flips a remote peer's alive flag.
func (n *netLayer) broadcastTopoLocked(c *Cluster) {
	tr := n.tr()
	if tr == nil {
		return
	}
	b := n.encodeTopoLocked(c)
	for _, node := range tr.Peers() {
		tr.Send(node, &transport.Msg{Kind: byte(msgControl), Origin: n.self, Payload: b})
	}
}

// applyTopoBroadcast (daemon) swaps in the composition a ctlTopo frame
// describes. Locally hosted peers are kept as-is (their goroutines own
// their structural state and alive flags); peers hosted elsewhere become
// stubs carrying the broadcast range and alive flag. Members that vanished
// from the list join the tombstone queue so stale deliveries keep being
// forwarded until the usual two-stage reap retires them.
func (c *Cluster) applyTopoBroadcast(body []byte) {
	n := c.net
	r := wreader{b: body}
	epoch := r.u64()
	cnt := r.count(29)
	type member struct {
		id    core.PeerID
		node  transport.NodeID
		rng   keyspace.Range
		alive bool
	}
	ms := make([]member, 0, cnt)
	for i := 0; i < cnt && !r.fail; i++ {
		ms = append(ms, member{
			id:    r.peerID(),
			node:  transport.NodeID(r.u32()),
			rng:   r.rng(),
			alive: r.bool(),
		})
	}
	acnt := r.count(8)
	type nodeAddr struct {
		node transport.NodeID
		addr string
	}
	addrs := make([]nodeAddr, 0, acnt)
	for i := 0; i < acnt && !r.fail; i++ {
		addrs = append(addrs, nodeAddr{node: transport.NodeID(r.u32()), addr: string(r.bytes())})
	}
	if !r.done() {
		return
	}
	if tr := n.tr(); tr != nil {
		for _, na := range addrs {
			if na.node != n.self {
				tr.SetAddr(na.node, na.addr)
			}
		}
	}

	c.memberMu.Lock()
	defer c.memberMu.Unlock()
	if c.stopped.Load() {
		return
	}
	old := c.topo.Load()
	if epoch < old.epoch {
		return // a stale replay (reconnect push raced a newer broadcast)
	}
	c.reapTombstones()
	old = c.topo.Load()
	nt := &topology{
		peers:   make(map[core.PeerID]*peer, len(ms)+len(old.peers)),
		members: make(map[core.PeerID]bool, len(ms)),
		epoch:   epoch,
	}
	for _, m := range ms {
		p := old.peers[m.id]
		hosted := m.node == n.self
		switch {
		case p != nil && hosted && p.node == 0:
			// A peer this node hosts: its goroutine owns range and flags.
		case p != nil && !hosted && p.node == m.node:
			p.rng = m.rng
			p.alive.Store(m.alive)
		case hosted:
			// The broadcast says this node hosts a peer it has no object
			// for — a spawn that failed, or a replayed epoch. Leave a hole;
			// requests for it fail over like a dead peer.
			continue
		default:
			p = newStub(m.id, m.node, c.fanout)
			p.rng = m.rng
			p.alive.Store(m.alive)
		}
		nt.peers[m.id] = p
		nt.members[m.id] = true
		nt.ring = append(nt.ring, ringEntry{id: m.id, lower: m.rng.Lower, p: p})
		nt.ids = append(nt.ids, m.id)
	}
	sortTopology(nt)
	if hc := 8 * (len(ms) + 4); hc > old.hopCap {
		nt.hopCap = hc
	} else {
		nt.hopCap = old.hopCap
	}
	for id, p := range old.peers {
		if nt.peers[id] != nil {
			continue
		}
		nt.peers[id] = p
		queued := false
		for _, tp := range c.tombstones {
			if tp == p {
				queued = true
				break
			}
		}
		if !queued {
			c.tombstones = append(c.tombstones, p)
		}
	}
	c.topo.Store(nt)
}

// encodeLocalLoads (daemon) renders the load counters of every locally
// hosted member for a ctlLoads reply.
func (c *Cluster) encodeLocalLoads() []byte {
	t := c.topo.Load()
	b := appendU32(nil, 0)
	var cnt uint32
	for _, id := range t.ids {
		p := t.peers[id]
		if p == nil || p.node != 0 {
			continue
		}
		b = appendPeerID(b, id)
		b = appendI64(b, p.reqs.Load())
		b = appendI64(b, p.items.Load())
		cnt++
	}
	binary.LittleEndian.PutUint32(b[:4], cnt)
	return b
}

// gatherRemoteLoads (head) refreshes the stub load counters from each
// connected daemon — one ctlLoads RPC per node — so Cluster.Loads reads
// current numbers for peers it does not host. The lone exception to the
// load meter's "message-free" property, and only on the coordinator of a
// multi-process cluster.
func (n *netLayer) gatherRemoteLoads(c *Cluster) {
	tr := n.tr()
	if tr == nil {
		return
	}
	t := c.topo.Load()
	for _, node := range tr.Peers() {
		body, err := n.rpc(node, ctlLoads, nil)
		if err != nil {
			continue
		}
		r := wreader{b: body}
		cnt := r.count(24)
		for i := 0; i < cnt && !r.fail; i++ {
			id := r.peerID()
			reqs := r.i64()
			items := r.i64()
			if p := t.peers[id]; p != nil && p.node == node {
				p.reqs.Store(reqs)
				p.items.Store(items)
			}
		}
	}
}

// sortTopology orders a freshly built topology's ring and id list.
func sortTopology(nt *topology) {
	for i := 1; i < len(nt.ring); i++ {
		for j := i; j > 0 && nt.ring[j].lower < nt.ring[j-1].lower; j-- {
			nt.ring[j], nt.ring[j-1] = nt.ring[j-1], nt.ring[j]
		}
	}
	for i := 1; i < len(nt.ids); i++ {
		for j := i; j > 0 && nt.ids[j] < nt.ids[j-1]; j-- {
			nt.ids[j], nt.ids[j-1] = nt.ids[j-1], nt.ids[j]
		}
	}
}

// newStub builds the local placeholder for a peer hosted on another node:
// a peer object with node set and no goroutine — deliveries to it detour
// onto the wire (deliverTo), and the metrics block records the sends this
// node originated towards it.
func newStub(id core.PeerID, node transport.NodeID, fanout int) *peer {
	p := newPeer(id, fanout)
	p.node = node
	return p
}

// requireCoordinator gates structural APIs: a daemon must not run them (the
// mirror lives at the head, and two coordinators would race the overlay).
func (c *Cluster) requireCoordinator() error {
	if c.net != nil && !c.net.isHead {
		return ErrNotCoordinator
	}
	return nil
}

// SeedDown reports (daemons only) when the connection to the coordinator
// is lost; nil on the coordinator and on in-process clusters.
func (c *Cluster) SeedDown() <-chan struct{} {
	if c.net == nil || c.net.isHead {
		return nil
	}
	return c.net.seedDown
}

// Addr is the node's transport listen address; "" for in-process clusters.
func (c *Cluster) Addr() string {
	if c.net == nil {
		return ""
	}
	if tr := c.net.tr(); tr != nil {
		return tr.Addr()
	}
	return ""
}

// NewClusterListen is NewCluster plus a wire transport: the returned
// cluster is the multi-process overlay's coordinator, listening on the
// given address ("" picks a loopback port; see Addr) for daemons joining
// via JoinRemote or cmd/batond.
func NewClusterListen(nw *core.Network, listen string) (*Cluster, error) {
	c := NewCluster(nw)
	n := newNetLayer(true)
	n.self = headNodeID
	tr, err := transport.Listen(transport.Config{
		Self:       headNodeID,
		Listen:     listen,
		Handler:    n.handleMsg,
		OnPeerUp:   n.onPeerUp,
		OnPeerDown: n.onPeerDown,
		Assign:     n.assign,
	})
	if err != nil {
		c.Stop()
		return nil, err
	}
	n.trp.Store(tr)
	n.attach(c)
	return c, nil
}

// JoinRemote connects to a coordinator at seed and returns a daemon-side
// Cluster: a data-plane view of the same overlay whose Get/Put/Delete/
// Range/Bulk APIs work exactly like the coordinator's. hostPeers > 0 asks
// the coordinator to run that many joins with the new peers hosted here,
// so the process serves a share of the keyspace; 0 joins as a pure client.
// The daemon exits the overlay when Stop is called or the seed connection
// drops (SeedDown).
func JoinRemote(seed string, hostPeers int) (*Cluster, error) {
	n := newNetLayer(false)
	tr, err := transport.Listen(transport.Config{
		Self:       0,
		Handler:    n.handleMsg,
		OnPeerUp:   n.onPeerUp,
		OnPeerDown: n.onPeerDown,
	})
	if err != nil {
		return nil, err
	}
	n.trp.Store(tr)
	head, err := tr.Dial(seed)
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("p2p: dialing seed %s: %w", seed, err)
	}
	n.self = tr.Self()
	n.headNode = head
	hello, err := n.rpc(head, ctlHello, appendBytes(nil, []byte(tr.Addr())))
	if err != nil {
		tr.Close()
		return nil, fmt.Errorf("p2p: seed handshake: %w", err)
	}
	r := wreader{b: hello}
	domain := r.rng()
	fanout := int(r.u32())
	if !r.done() || fanout < 2 {
		tr.Close()
		return nil, fmt.Errorf("p2p: seed handshake: malformed hello reply")
	}
	c := &Cluster{
		fanout:   fanout,
		done:     make(chan struct{}),
		domain:   domain,
		suspects: make(chan core.PeerID, 64),
		traces:   obs.NewTraceRing(traceRingSize),
		journal:  obs.NewJournal(journalSize),
		retired:  obs.NewPeerMetrics(numKinds),
	}
	c.topo.Store(&topology{
		peers:   make(map[core.PeerID]*peer),
		members: make(map[core.PeerID]bool),
	})
	c.states = make(map[core.PeerID]core.PeerSnapshot)
	n.attach(c)
	if hostPeers > 0 {
		rep, err := n.rpc(head, ctlJoin, appendU32(nil, uint32(hostPeers)))
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("p2p: joining %d peers: %w", hostPeers, err)
		}
		rr := wreader{b: rep}
		if joined := int(rr.u32()); !rr.done() || joined < hostPeers {
			c.Stop()
			return nil, fmt.Errorf("p2p: seed joined %d of %d requested peers", joined, hostPeers)
		}
	}
	if err := c.waitTopo(10 * time.Second); err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// waitTopo blocks until the first topology broadcast lands (the head
// pushes one on connect, so this resolves promptly).
func (c *Cluster) waitTopo(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if c.topo.Load().epoch != 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("p2p: no topology broadcast from seed: %w", ErrUnreachable)
		}
		select {
		case <-c.net.seedDown:
			return fmt.Errorf("p2p: seed connection lost: %w", ErrOwnerDown)
		case <-c.done:
			return ErrStopped
		case <-time.After(2 * time.Millisecond):
		}
	}
}
