// Package transport owns the vocabulary and the byte-level interfaces
// shared by every interconnect backend of the DSM.
//
// Two layers of "transport" exist in this codebase, and this package is
// the boundary between them:
//
//   - The virtual-time, closure-level layer: the protocol engine in
//     internal/core addresses peers by NodeID, labels traffic with a
//     Class, and hands the interconnect a delivery closure. The
//     deterministic simulator (internal/netsim) implements that contract
//     behind core.Interconnect; it is the oracle every other backend is
//     measured against.
//
//   - The real-time, byte-level layer: Conn moves length-delimited
//     Messages between OS threads or OS processes. The loopback backend
//     (goroutine pairs and real channels, this package) and the TCP
//     backend (tcp.go) implement Conn; the real-execution runtime in
//     internal/rt maps the coherence protocol onto those bytes.
//
// The vocabulary types (NodeID, Class, Stats) live here so that the
// protocol engine, the simulator, and the real backends agree on them
// without the engine importing any backend concretely.
package transport

import (
	"errors"
	"fmt"
)

// NodeID identifies a node (processor) in a cluster, simulated or real.
type NodeID int

// Class categorizes messages for Table 2 accounting. The classes are
// shared by every backend so traffic tables mean the same thing over the
// simulator, the loopback mesh, and a TCP cluster.
type Class uint8

// Message classes. Data-carrying traffic (page and diff requests and
// replies) is classed ClassDiff, following the paper: "Diff messages are
// used to satisfy remote data requests."
const (
	ClassBarrier Class = iota
	ClassLock
	ClassDiff
	// ClassUpdate carries eager diff pushes for pages running in the
	// adaptive update mode (producer→subscriber, no request leg).
	ClassUpdate
	NumClasses // count sentinel; keep last
)

// String returns the Table 2 column name for the class.
func (c Class) String() string {
	switch c {
	case ClassBarrier:
		return "Barrier"
	case ClassLock:
		return "Lock"
	case ClassDiff:
		return "Diff"
	case ClassUpdate:
		return "Update"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Classes returns every message class in Table 2 column order. Tests use
// it to guard that new classes are reflected in the accounting arrays and
// the Table 2 writer.
func Classes() []Class {
	cs := make([]Class, NumClasses)
	for i := range cs {
		cs[i] = Class(i)
	}
	return cs
}

// Stats holds cumulative per-class message and byte counts, plus a
// per-destination breakdown (Peers is indexed by destination NodeID;
// the self entry stays zero).
type Stats struct {
	Msgs  [NumClasses]int64
	Bytes [NumClasses]int64
	Peers []PeerStats
}

// PeerStats is the sent-side traffic toward one destination node.
type PeerStats struct {
	Msgs  [NumClasses]int64
	Bytes [NumClasses]int64
}

// TotalMsgs reports the peer's total message count across classes.
func (p PeerStats) TotalMsgs() int64 {
	var n int64
	for _, m := range p.Msgs {
		n += m
	}
	return n
}

// TotalBytes reports the peer's total payload bytes across classes.
func (p PeerStats) TotalBytes() int64 {
	var n int64
	for _, b := range p.Bytes {
		n += b
	}
	return n
}

// Equal reports whether two stats carry identical counts; it replaces
// == comparison, which the Peers slice rules out.
func (s Stats) Equal(o Stats) bool {
	if s.Msgs != o.Msgs || s.Bytes != o.Bytes || len(s.Peers) != len(o.Peers) {
		return false
	}
	for i := range s.Peers {
		if s.Peers[i] != o.Peers[i] {
			return false
		}
	}
	return true
}

// TotalMsgs reports the total message count across classes.
func (s Stats) TotalMsgs() int64 {
	var n int64
	for _, m := range s.Msgs {
		n += m
	}
	return n
}

// TotalBytes reports the total payload bytes across classes.
func (s Stats) TotalBytes() int64 {
	var n int64
	for _, b := range s.Bytes {
		n += b
	}
	return n
}

// ErrClosed is returned by Conn operations after Close (or after the
// peer went away). Errors returned by a Conn always name the backend and
// the peer so multi-process failures are attributable.
var ErrClosed = errors.New("transport: connection closed")

// Message is one protocol datagram at the byte layer. Type is owned by
// the layer above (internal/rt defines the DSM message types); the
// transport only routes and counts it.
type Message struct {
	From    NodeID
	To      NodeID
	Class   Class
	Type    uint8
	Payload []byte
}

// Conn is one node's attachment to a cluster interconnect at the byte
// level. Send must not block indefinitely on a slow receiver (backends
// queue outbound traffic), or two nodes flushing into each other would
// deadlock the coherence protocol. Recv blocks until a message arrives
// or the conn is closed.
//
// Implementations must allow Send and Recv from different goroutines;
// concurrent Sends must also be safe (worker threads and the protocol
// dispatcher both transmit).
type Conn interface {
	// Self reports the node this endpoint belongs to.
	Self() NodeID
	// Nodes reports the cluster size.
	Nodes() int
	// Backend names the implementation ("loopback", "tcp") for error
	// attribution and run reports.
	Backend() string
	// PeerAddr describes the peer's address in backend terms ("node 3"
	// for loopback, "127.0.0.1:7001" for TCP) for error attribution.
	PeerAddr(to NodeID) string
	// Send transmits m to m.To. The payload is owned by the transport
	// after Send returns; callers must not reuse it.
	Send(m Message) error
	// Recv returns the next inbound message, blocking until one arrives.
	// It returns ErrClosed (wrapped) once the conn is closed and the
	// inbound queue has drained.
	Recv() (Message, error)
	// Stats snapshots the per-class traffic counters (sent side).
	Stats() Stats
	// Goodbye tells every peer that this node is leaving on purpose:
	// everything it will ever send is queued ahead of the call, and the
	// end of its streams that Close brings is not a failure. A node
	// that closes without it reads, to its peers, as dead — which is
	// what an aborted run must look like.
	Goodbye()
	// Close tears the endpoint down and unblocks Recv.
	Close() error
}
