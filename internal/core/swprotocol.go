package core

import (
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// Protocol selects the coherence protocol. CVM was built as a platform
// for protocol experimentation ("supports multiple protocols and
// consistency models"); the paper's experiments all use the lazy
// multi-writer protocol, and the single-writer protocol here is the
// classic baseline it was measured against in Keleher's ICDCS'96 study
// (the paper's reference [1]).
type Protocol uint8

const (
	// ProtocolLRC is the paper's protocol: multiple-writer lazy release
	// consistency with twins, diffs, and write notices.
	ProtocolLRC Protocol = iota
	// ProtocolSW is a single-writer write-invalidate protocol with a
	// static per-page directory: read faults fetch the page and join the
	// copyset; write faults invalidate every copy and migrate ownership.
	// It is sequentially consistent and needs no twins or diffs, but
	// falsely-shared pages ping-pong.
	ProtocolSW
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtocolSW:
		return "single-writer"
	default:
		return "lazy-multi-writer"
	}
}

// swDir is the directory entry for one page at its manager: who owns the
// page (write access), who holds read copies, and the transaction gate
// serializing fault handling.
type swDir struct {
	owner   int
	copyset copyset // nodes with a valid (read or write) copy

	busy        bool
	pendingAcks int
	current     swReq
	queue       []swReq
}

// swReq is one queued fault transaction.
type swReq struct {
	node  int
	write bool
}

// swFault tracks an in-flight fetch at the faulting node.
type swFault struct {
	waiters []*Thread
	done    bool
	start   sim.Time // fault-span open, for fault.resolve's Dur
}

func (n *node) swDirFor(pg PageID) *swDir {
	d := n.swdir[pg]
	if d == nil {
		if n.swdir == nil {
			n.swdir = make(map[PageID]*swDir)
		}
		d = &swDir{owner: n.id}
		d.copyset.reset(n.id, n.sys.cfg.Nodes)
		n.swdir[pg] = d
	}
	return d
}

// swEnsureAccess is the single-writer fault state machine, the SW
// counterpart of ensureAccess.
func (t *Thread) swEnsureAccess(p *page, write bool) {
	n := t.node
	cfg := &t.sys.cfg
	for {
		switch {
		case p.state == PageReadWrite:
			return
		case p.state == PageReadOnly && !write:
			return
		default:
			// Upgrade or miss: both go through the directory.
			if f := p.swf; f != nil {
				n.stats.BlockSamePage++
				f.waiters = append(f.waiters, t)
				t.blockFault(p)
				continue
			}
			t.task.Advance(cfg.SignalCost)
			if p.state != PageInvalid && !(write && p.state == PageReadOnly) {
				continue // raced with a completing transaction
			}
			f := &swFault{start: t.task.Now()}
			p.swf = f
			f.waiters = append(f.waiters, t)
			if tr := t.sys.tracer; tr != nil {
				tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindFaultStart,
					Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id)})
			}
			n.stats.RemoteFaults++
			n.stats.OutstandingFaults += int64(n.inFlightFaults)
			n.stats.OutstandingLocks += int64(n.inFlightLocks)
			n.inFlightFaults++

			sys := t.sys
			mgr := int(p.id) % sys.cfg.Nodes
			req := swReq{node: n.id, write: write}
			if mgr == n.id {
				// Defer to engine context so the thread is blocked
				// before any completion can wake it.
				t.task.Schedule(t.task.Now(), func() {
					sys.nodes[mgr].swHandleRequest(p.id, req)
				})
			} else {
				sys.send(t.task, NodeID(n.id), NodeID(mgr),
					ClassDiff, swCtlBytes, func() {
						sys.nodes[mgr].swHandleRequest(p.id, req)
					})
			}
			t.blockFault(p)
			// Completion installed the page and cleared p.swf; loop to
			// validate the new access rights.
		}
	}
}

// swHandleRequest runs at the page's manager (engine context): serialize
// transactions per page, then invalidate and transfer as needed.
func (n *node) swHandleRequest(pg PageID, req swReq) {
	d := n.swDirFor(pg)
	if d.busy {
		d.queue = append(d.queue, req)
		return
	}
	d.busy = true
	n.swServe(pg, d, req)
}

func (n *node) swServe(pg PageID, d *swDir, req swReq) {
	d.current = req
	if !req.write {
		n.swTransfer(pg, d)
		return
	}
	// Write: invalidate every copy except the requester's own (the
	// owner's copy dies at transfer). Fan-out enumerates the copyset
	// ascending by node, like the old full 0..N bitmask scan.
	targets := d.copyset.appendMembers(n.csScratch[:0], req.node, d.owner)
	n.csScratch = targets[:0]
	d.pendingAcks = len(targets)
	if d.pendingAcks == 0 {
		n.swTransfer(pg, d)
		return
	}
	sys := n.sys
	for _, t := range targets {
		node := int(t)
		n.swSend(node, swCtlBytes, func() {
			sys.nodes[node].swInvalidate(pg)
			sys.nodes[node].swSend(n.id, swCtlBytes, func() {
				d.pendingAcks--
				if d.pendingAcks == 0 {
					n.swTransfer(pg, d)
				}
			})
		})
	}
}

// swInvalidate drops this node's copy (engine context). The page buffer
// returns to the node's pool: any later access is preceded by a
// full-page transfer (or the page is logically zero everywhere), so the
// stale copy can never be read again.
func (n *node) swInvalidate(pg PageID) {
	p := n.pageAt(pg)
	if p.state != PageInvalid {
		p.state = PageInvalid
	}
	n.releaseData(p)
}

// swTransfer moves the page (and, for writes, ownership) to the
// requester. Runs at the manager in engine context.
func (n *node) swTransfer(pg PageID, d *swDir) {
	req := d.current
	sys := n.sys
	owner := d.owner

	finish := func() {
		target := sys.nodes[req.node]
		p := target.pageAt(pg)
		if req.write {
			target.materialize(p)
			p.state = PageReadWrite
		} else if p.state != PageReadWrite {
			p.state = PageReadOnly
		}
		target.swComplete(p)
		// Completion ack releases the transaction gate.
		target.swSend(n.id, swCtlBytes, func() {
			d.busy = false
			if len(d.queue) > 0 {
				next := d.queue[0]
				d.queue = d.queue[:copy(d.queue, d.queue[1:])]
				d.busy = true
				n.swServe(pg, d, next)
			}
		})
	}

	if req.write {
		d.owner = req.node
		d.copyset.reset(req.node, n.sys.cfg.Nodes)
	} else {
		d.copyset.add(req.node)
	}

	if owner == req.node {
		// Upgrade in place: no data moves, just the grant.
		n.swSend(req.node, swCtlBytes, finish)
		return
	}

	// Forward to the owner, which ships the page to the requester.
	n.swSend(owner, swCtlBytes, func() {
		src := sys.nodes[owner]
		sp := src.pageAt(pg)
		var data []byte
		if sp.data != nil {
			data = append([]byte(nil), sp.data...)
		}
		if req.write {
			sp.state = PageInvalid
			src.releaseData(sp) // the copy just shipped; recycle the buffer
		} else if sp.state == PageReadWrite {
			sp.state = PageReadOnly
		}
		src.swSend(req.node, swCtlBytes+sys.cfg.PageSize, func() {
			dst := sys.nodes[req.node]
			p := dst.pageAt(pg)
			if data != nil {
				dst.materialize(p)
				copy(p.data, data)
			}
			finish()
		})
	})
}

// swComplete wakes the threads blocked on the fault.
func (n *node) swComplete(p *page) {
	f := p.swf
	if f == nil {
		return
	}
	p.swf = nil
	n.inFlightFaults--
	if tr := n.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: n.proc.LocalNow(), Dur: n.proc.LocalNow() - f.start, Kind: trace.KindFaultResolve,
			Node: int32(n.id), Thread: -1, Page: int32(p.id)})
	}
	for _, w := range f.waiters {
		n.sys.eng.Wake(w.task)
	}
}

// swSend delivers fn at another node (engine context), degenerating to a
// local event when from == to.
func (n *node) swSend(to int, bytes int, fn func()) {
	if to == n.id {
		n.sys.eng.ScheduleOn(n.proc, n.proc.LocalNow(), fn)
		return
	}
	n.sys.send(nil, NodeID(n.id), NodeID(to),
		ClassDiff, bytes, fn)
}

// swCtlBytes is the wire size of directory control messages.
const swCtlBytes = 16
