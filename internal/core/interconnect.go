package core

import (
	"errors"

	"cvm/internal/sim"
	"cvm/internal/transport"
)

// The protocol engine addresses peers with the shared transport
// vocabulary; the concrete interconnect behind it is pluggable. Aliasing
// the types here keeps the protocol files (lock.go, sync.go, fault.go,
// swprotocol.go) free of any backend import: they name
// nodes and message classes abstractly and route every cross-node send
// through System.send, which dispatches on the installed Interconnect.
type (
	// NodeID identifies a node at the protocol layer.
	NodeID = transport.NodeID
	// MsgClass categorizes protocol traffic for Table 2 accounting.
	MsgClass = transport.Class
)

// Message classes, re-exported for the protocol files.
const (
	ClassBarrier = transport.ClassBarrier
	ClassLock    = transport.ClassLock
	ClassDiff    = transport.ClassDiff
	ClassUpdate  = transport.ClassUpdate
)

// Interconnect is the virtual-time, closure-level transport contract the
// protocol engine runs over. Deliver closures execute in engine context
// at the receiving node; the interconnect decides when. The simulated
// network (internal/netsim) is the canonical implementation and the
// determinism oracle; tests may wrap it to observe or perturb traffic.
//
// This interface is deliberately in-process: closures cannot cross an OS
// process boundary, so real multi-process backends do not implement it.
// They implement the byte-level transport.Conn instead, and a separate
// real-execution runtime (internal/rt) maps the coherence protocol onto
// bytes. See DESIGN.md §11 for the two-layer boundary.
type Interconnect interface {
	// Name identifies the backend in error messages and run reports.
	Name() string
	// PeerAddr describes to's address in backend terms, for error
	// attribution ("node 3" on simulated backends, "host:port" on real
	// ones).
	PeerAddr(to NodeID) string
	// SendFromTask transmits a message from task context at node from,
	// charging the sender's CPU overhead to the task. deliver runs in
	// engine context at to. from and to must differ.
	SendFromTask(t *sim.Task, from, to NodeID, class MsgClass, bytes int, deliver func())
	// SendFromHandler transmits a message from engine context (a message
	// handler acting for node from). from and to must differ.
	SendFromHandler(from, to NodeID, class MsgClass, bytes int, deliver func())
}

// SetInterconnect replaces the interconnect the protocol engine sends
// through. It must be called before Start; tests use it to interpose
// recording or fault-shaping wrappers around the simulated network
// (available via System.Network).
func (s *System) SetInterconnect(ic Interconnect) error {
	if s.started {
		return errors.New("core: SetInterconnect after Start")
	}
	if ic == nil {
		return errors.New("core: SetInterconnect with nil interconnect")
	}
	s.fab = ic
	return nil
}

// Interconnect returns the interconnect the protocol engine is wired to.
func (s *System) Interconnect() Interconnect { return s.fab }

// send routes a protocol send to the interconnect. t is the sending
// task, nil for a send from engine context (a message handler). Every
// cross-node send in the protocol goes through it.
func (s *System) send(t *sim.Task, from, to NodeID, class MsgClass, bytes int, deliver func()) {
	if t != nil {
		s.fab.SendFromTask(t, from, to, class, bytes, deliver)
		return
	}
	s.fab.SendFromHandler(from, to, class, bytes, deliver)
}
