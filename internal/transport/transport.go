// Package transport is the message medium under the multi-process p2p
// cluster: TCP moves opaque, correlation-tagged frames between *nodes* (OS
// processes hosting one or more peers) and knows nothing about what the
// frames mean.
//
// Peers hosted by the same process never reach this package: the p2p layer
// writes a request — reply channel and all — straight into the destination
// peer's inbox, so hop counts, the 0-alloc direct-get path and the
// goroutine-leak barrier do not depend on it. Only when the destination
// peer lives on another node does the cluster build a Msg and hand it to
// TCP.Send, and at that point the reply channel is replaced by a
// correlation ID.
//
// # The correlation contract
//
// A channel cannot cross a process boundary, so a request that expects an
// answer carries Msg.Corr, a nonzero 64-bit ID minted by the *origin* node.
// The contract is:
//
//   - Corr == 0 means fire-and-forget: no response frame may be sent for it.
//   - Corr != 0 obliges whichever node finally serves the request to send
//     exactly one response frame addressed to Msg.Origin carrying the same
//     Corr. Intermediate nodes that forward the request forward Origin and
//     Corr verbatim — the response does not retrace the request's route.
//   - The origin keeps a table mapping Corr to a completion (a channel send,
//     a range-collector contribution, ...). The table entry is released when
//     the response arrives, when the connection to the node it was sent to
//     drops (completed with the owner-down error so retry layers see the
//     exact failure they already handle), or when the node stops.
//   - A response for a released Corr is dropped silently; late duplicates
//     are harmless.
//
// TCP delivers frames at most once, in order per connection, and never
// blocks the sender: Send either enqueues and returns true or returns false
// immediately (unknown node, connection down, transport stopped), which the
// p2p layer maps onto its existing refused-delivery semantics. Every
// inbound frame's payload is a fresh buffer (ReadFrame), owned by the
// Handler it is passed to.
package transport

// NodeID names a process in the cluster. ID 0 is reserved: a dialer that
// does not yet have an identity claims 0 and is assigned one by the
// listener's Assign hook during the hello handshake.
type NodeID uint32

// Msg is one frame on the wire. To/Kind/Flags/Payload are opaque to the
// transport; Corr and Origin implement the correlation contract above.
type Msg struct {
	To      uint64 // destination peer (p2p-level address inside the node)
	Corr    uint64 // correlation ID, 0 = fire-and-forget
	Origin  NodeID // node the response (if any) must be sent to
	Kind    uint8  // p2p-level message kind; values >= 250 are reserved
	Flags   uint8
	Payload []byte
}

// Handler receives every inbound frame. It runs on the connection's reader
// goroutine and must not block: hand long work to another goroutine.
type Handler func(from NodeID, m *Msg)

// Reserved frame kinds used by the hello handshake. P2P-level kinds must
// stay below these.
const (
	kindHello    = 255
	kindHelloAck = 254
)
