package core

import (
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// lockState is one node's view of one global lock. Lock ownership is a
// token that migrates between nodes; a static manager (lock % nodes)
// forwards each request to the last requester, giving the paper's 2-hop
// (manager holds the token) and 3-hop (token elsewhere) acquire paths.
//
// Per the paper's multi-threading changes, each node keeps a local queue:
// threads acquiring a lock already held or requested locally enqueue
// without remote traffic, and release prefers local waiters over remote
// requesters — unfair, but effective.
type lockState struct {
	id        int
	token     bool    // lock ownership resident at this node
	heldBy    *Thread // local holder, nil if free
	localQ    []*Thread
	requested bool   // remote request in flight
	nextNode  int    // node to hand the token to after the local queue drains
	nextVT    VClock // the pending remote requester's vector time
	nextHops  uint8  // hop count of the pending remote request

	mgrLast int // manager's record of the last requesting node

	// reqStart/grantHops time and classify the in-flight remote acquire
	// for its lock.acquire event: the grant records its hop count (2 when
	// the manager held or was asked by the token holder, 3 when it
	// forwarded).
	reqStart  sim.Time
	grantHops uint8
}

func (n *node) lockAt(id int) *lockState {
	l := n.locks[id]
	if l == nil {
		if n.locks == nil {
			n.locks = make(map[int]*lockState)
		}
		l = &lockState{id: id, nextNode: -1}
		mgr := id % n.sys.cfg.Nodes
		if n.id == mgr {
			// The manager initially holds the token, free.
			l.token = true
			l.mgrLast = mgr
		}
		n.locks[id] = l
	}
	return l
}

// Lock acquires global lock id, blocking until granted. Acquiring is an
// LRC acquire: the grant carries write notices for intervals this node
// has not seen.
func (t *Thread) Lock(id int) {
	n := t.node
	l := n.lockAt(id)
	cfg := &t.sys.cfg

	switch {
	case l.token && l.heldBy == nil && !l.requested:
		// Fast path: token cached here and free. Claim it before the
		// bookkeeping cost is charged: a handoff that lands meanwhile
		// must find it held, not grant the token away under us.
		l.heldBy = t
		t.task.Advance(cfg.LockLocalCost)
		n.stats.LocalLockAcquires++
		t.traceLockAcquire(id, 0, t.task.Now())

	case l.heldBy != nil || l.requested || len(l.localQ) > 0:
		// Locally contended: join the local queue. This is the paper's
		// Block Same Lock event and costs no messages.
		n.stats.BlockSameLock++
		n.stats.LocalLockAcquires++
		l.localQ = append(l.localQ, t)
		wstart := t.task.Now()
		t.block(trace.ReasonLock, wstart, trace.Event{Sync: int32(id)})
		// Woken as the holder (set by the releaser or the grant).
		t.traceLockAcquire(id, 1, wstart)

	default:
		// Token elsewhere: one remote request via the manager.
		l.requested = true
		n.stats.RemoteLocks++
		n.stats.OutstandingFaults += int64(n.inFlightFaults)
		n.stats.OutstandingLocks += int64(n.inFlightLocks)
		n.inFlightLocks++
		l.localQ = append(l.localQ, t)
		l.reqStart = t.task.Now()
		if tr := t.sys.tracer; tr != nil {
			tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindLockRequest,
				Node: int32(n.id), Thread: int32(t.gid), Sync: int32(id)})
		}
		t.sendLockRequest(l)
		t.block(trace.ReasonLock, l.reqStart, trace.Event{Sync: int32(id)})
		t.traceLockAcquire(id, int64(l.grantHops), l.reqStart)
	}
}

// traceLockAcquire records that the thread now holds lock id after
// waiting since since; how is the event's Aux: 0 the cached token, 1 the
// local queue, 2 or 3 the hops of a remote acquire.
func (t *Thread) traceLockAcquire(id int, how int64, since sim.Time) {
	tr := t.sys.tracer
	if tr == nil {
		return
	}
	e := trace.Event{T: t.task.Now(), Kind: trace.KindLockAcquire,
		Node: int32(t.node.id), Thread: int32(t.gid), Sync: int32(id), Aux: how}
	e.Dur = e.T - since
	tr.Emit(e)
}

// sendLockRequest routes the acquire to the lock's manager. The request
// carries the requester's vector time so the eventual grant can compute
// the write notices to piggyback (the LRC acquire protocol).
func (t *Thread) sendLockRequest(l *lockState) {
	sys := t.sys
	n := t.node
	mgr := l.id % sys.cfg.Nodes
	reqVT := n.vt.Clone()
	bytes := lockMsgBytes + reqVT.wireBytes()

	if mgr == n.id {
		// We are the manager: forward straight to the last requester.
		// (The token cannot be here: the fast path would have taken it.)
		last := l.mgrLast
		l.mgrLast = n.id
		sys.send(t.task, NodeID(n.id), NodeID(last),
			ClassLock, bytes, func() {
				// Two messages total (request straight to the holder,
				// grant back): the 2-hop path, no manager forward.
				sys.nodes[last].handleLockHandoff(l.id, n.id, reqVT, 2)
			})
		return
	}
	sys.send(t.task, NodeID(n.id), NodeID(mgr),
		ClassLock, bytes, func() {
			sys.nodes[mgr].handleLockManagerRequest(l.id, n.id, reqVT)
		})
}

// handleLockManagerRequest runs at the lock's manager (engine context):
// record the requester as last and forward to the previous last. If the
// previous last is the manager itself the "forward" is a local call — the
// 2-hop path.
func (n *node) handleLockManagerRequest(id, from int, reqVT VClock) {
	l := n.lockAt(id)
	last := l.mgrLast
	l.mgrLast = from
	if last == n.id {
		n.handleLockHandoff(id, from, reqVT, 2)
		return
	}
	sys := n.sys
	if tr := sys.tracer; tr != nil {
		// A remote forward marks the 3-hop acquire path (the 2-hop path
		// resolves at the manager without one).
		tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindLockForward,
			Node: int32(n.id), Thread: -1, Sync: int32(id),
			Peer: int32(last), Arg: int64(from)})
	}
	sys.send(nil, NodeID(n.id), NodeID(last),
		ClassLock, lockMsgBytes+reqVT.wireBytes(), func() {
			sys.nodes[last].handleLockHandoff(id, from, reqVT, 3)
		})
}

// handleLockHandoff runs at the node that last requested the token
// (engine context): grant immediately if the token is free, otherwise
// remember the requester for release time.
func (n *node) handleLockHandoff(id, to int, reqVT VClock, hops uint8) {
	l := n.lockAt(id)
	if l.token && l.heldBy == nil && len(l.localQ) == 0 && !l.requested {
		n.grantLock(nil, l, to, reqVT, hops)
		return
	}
	if l.nextNode >= 0 {
		panic("core: second lock forward before token handoff")
	}
	l.nextNode = to
	l.nextVT = reqVT
	l.nextHops = hops
}

// grantLock sends the token (with piggybacked write notices) to a remote
// requester: from the releasing thread's task, or from engine context
// when task is nil (a request that found the token free).
func (n *node) grantLock(task *sim.Task, l *lockState, to int, reqVT VClock, hops uint8) {
	l.token = false
	ns := n.notices()
	bytes := lockMsgBytes + n.vt.wireBytes() + ns.bytesSince(reqVT)
	vt := n.vt.Clone()
	sys := n.sys
	sys.send(task, NodeID(n.id), NodeID(to), ClassLock, bytes, func() {
		sys.nodes[to].handleLockGrant(l.id, ns, vt, hops)
	})
}

// handleLockGrant runs at the original requester (engine context): apply
// the piggybacked consistency information and hand the lock to the first
// queued local thread.
func (n *node) handleLockGrant(id int, ns notices, senderVT VClock, hops uint8) {
	l := n.lockAt(id)
	l.grantHops = hops
	n.applyNotices(ns, senderVT)
	if tr := n.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindLockGrant,
			Node: int32(n.id), Thread: -1, Sync: int32(id)})
	}
	l.token = true
	l.requested = false
	n.inFlightLocks--
	next := l.localQ[0]
	l.localQ = l.localQ[:copy(l.localQ, l.localQ[1:])]
	l.heldBy = next
	n.sys.eng.Wake(next.task)
}

// Unlock releases global lock id. Release is an LRC release: the open
// interval closes so subsequent acquirers see this critical section's
// modifications. Local waiters are preferred over remote requesters, even
// ones that asked earlier.
func (t *Thread) Unlock(id int) {
	n := t.node
	l := n.lockAt(id)
	if l.heldBy != t {
		panic("core: Unlock of lock not held by this thread")
	}
	n.closeInterval(t)
	t.task.Advance(t.sys.cfg.LockLocalCost)
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindLockRelease,
			Node: int32(n.id), Thread: int32(t.gid), Sync: int32(id)})
	}

	if len(l.localQ) > 0 {
		next := l.localQ[0]
		l.localQ = l.localQ[:copy(l.localQ, l.localQ[1:])]
		l.heldBy = next
		t.sys.eng.WakeAt(next.task, t.task.Now())
		return
	}
	l.heldBy = nil
	if l.nextNode >= 0 {
		to, vt, hops := l.nextNode, l.nextVT, l.nextHops
		l.nextNode, l.nextVT, l.nextHops = -1, nil, 0
		n.grantLock(t.task, l, to, vt, hops)
	}
}

// lockMsgBytes is the header size of lock protocol messages.
const lockMsgBytes = 16
