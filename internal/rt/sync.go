package rt

import (
	"cvm/internal/core"
	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// doneBarrier is the reserved node-level barrier id for the completion
// rendezvous run by rnode.run after all local threads finish.
const doneBarrier = ^uint32(0)

// lockState is one lock at its manager (lock id % nodes). queue holds
// waiters in FIFO order as (node, reqID) pairs.
type lockState struct {
	held  bool
	queue []lockWaiter
}

type lockWaiter struct {
	node  int
	reqID uint32
}

// lockReq handles a lock request at the manager (from the dispatcher,
// or locally when the requester is co-located with the manager).
func (n *rnode) lockReq(from int, reqID, id uint32) {
	n.hmu.Lock()
	ls := n.locks[id]
	if ls == nil {
		ls = &lockState{}
		n.locks[id] = ls
	}
	if ls.held {
		ls.queue = append(ls.queue, lockWaiter{from, reqID})
		n.hmu.Unlock()
		return
	}
	ls.held = true
	n.hmu.Unlock()
	n.grant(from, reqID)
}

// lockRel handles a release at the manager: pass the token to the next
// waiter, or mark the lock free.
func (n *rnode) lockRel(id uint32) {
	n.hmu.Lock()
	ls := n.locks[id]
	if ls == nil || !ls.held {
		n.hmu.Unlock()
		return
	}
	if len(ls.queue) == 0 {
		ls.held = false
		n.hmu.Unlock()
		return
	}
	w := ls.queue[0]
	ls.queue = ls.queue[1:]
	n.hmu.Unlock()
	n.grant(w.node, w.reqID)
}

// grant delivers a lock grant: locally when the waiter is on this node
// (the transport forbids self-sends), over the wire otherwise.
func (n *rnode) grant(node int, reqID uint32) {
	if node == n.self {
		n.deliver(reqID, nil)
		return
	}
	n.send(node, msgLockGrant, putU32(nil, reqID))
}

// lock acquires global lock id for the calling worker. Caller holds tok.
func (n *rnode) lock(w *Worker, id int) {
	n.checkFail()
	mgr := id % n.nodes
	obs := n.met != nil || n.tracer != nil
	var t0 sim.Time
	if obs {
		t0 = n.clock.Now()
		if tr := n.tracer; tr != nil {
			tr.emit(trace.Event{T: t0, Kind: trace.KindLockRequest,
				Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id)})
		}
	}
	n.setState(w, tsLock)
	reqID, ch := n.newPending()
	if mgr == n.self {
		n.lockReq(n.self, reqID, uint32(id))
	} else {
		n.send(mgr, msgLockReq, encodeReq(reqID, uint32(id)))
	}
	n.tok.Unlock()
	n.await(ch)
	n.tok.Lock()
	n.setState(w, tsRunning)
	if obs {
		now := n.clock.Now()
		if m := n.met; m != nil {
			m.observeLock(n.self, int32(id), now-t0, mgr == n.self)
		}
		if tr := n.tracer; tr != nil {
			var arg int64
			if mgr == n.self {
				arg = 1 // satisfied without wire messages
			}
			tr.emit(trace.Event{T: now, Kind: trace.KindLockAcquire,
				Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id), Arg: arg})
		}
	}
	n.acquireSync()
}

// unlock releases global lock id: flush first, so the next holder's
// post-acquire reads observe everything written inside the critical
// section (release consistency's release half). Caller holds tok.
func (n *rnode) unlock(w *Worker, id int) {
	n.checkFail()
	if m := n.met; m != nil {
		m.count(n.self, (*metrics.Registry).CountLockRelease)
	}
	n.flushAll()
	if tr := n.tracer; tr != nil {
		tr.emit(trace.Event{T: n.clock.Now(), Kind: trace.KindLockRelease,
			Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id)})
	}
	mgr := id % n.nodes
	if mgr == n.self {
		n.lockRel(uint32(id))
		return
	}
	n.send(mgr, msgLockRel, putU32(nil, uint32(id)))
}

// nodeBar is one generation of a barrier (or local barrier) at one
// node: local arrival count, the channel waiters block on, and the
// invalidated flag the first post-release waker uses so the cache is
// dropped exactly once per generation. The entry is replaced on release,
// so reuse of a barrier id starts a fresh generation.
type nodeBar struct {
	count int
	ch    chan struct{}
	inv   bool // guarded by tok
}

func getBar(m map[uint32]*nodeBar, id uint32) *nodeBar {
	b := m[id]
	if b == nil {
		b = &nodeBar{ch: make(chan struct{})}
		m[id] = b
	}
	return b
}

// barrier blocks until every thread in the cluster arrives at id. The
// last local arriver flushes the node's dirty pages (all co-located
// threads are blocked here, so the flush is complete) and forwards one
// node-level arrival to the manager, node 0. Caller holds tok.
func (n *rnode) barrier(w *Worker, id uint32) {
	n.checkFail()
	obs := n.met != nil || n.tracer != nil
	var t0 sim.Time
	if obs {
		t0 = n.clock.Now()
		if m := n.met; m != nil {
			m.count(n.self, (*metrics.Registry).CountBarrierArrive)
		}
		if tr := n.tracer; tr != nil {
			tr.emit(trace.Event{T: t0, Kind: trace.KindBarrierArrive,
				Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id)})
		}
	}
	n.setState(w, tsBarrier)
	n.hmu.Lock()
	nb := getBar(n.nbar, id)
	nb.count++
	last := nb.count == n.threads
	n.hmu.Unlock()
	if last {
		n.flushAll()
		if n.self == 0 {
			n.barArrive(id)
		} else {
			n.send(0, msgBarArrive, putU32(nil, id))
		}
	}
	n.tok.Unlock()
	select {
	case <-nb.ch:
	case <-n.failCh:
	}
	n.tok.Lock()
	n.setState(w, tsRunning)
	if obs {
		if m := n.met; m != nil {
			m.observeBarrierStall(n.self, n.clock.Now()-t0, false)
		}
	}
	n.checkFail()
	if !nb.inv {
		nb.inv = true
		n.acquireSync()
	}
}

// barArrive counts node-level arrivals at the manager (node 0); the
// last one broadcasts the release.
func (n *rnode) barArrive(id uint32) {
	n.hmu.Lock()
	n.mbar[id]++
	done := n.mbar[id] == n.nodes
	if done {
		delete(n.mbar, id)
	}
	n.hmu.Unlock()
	if !done {
		return
	}
	for i := 1; i < n.nodes; i++ {
		n.send(i, msgBarRelease, putU32(nil, id))
	}
	n.barRelease(id)
}

// barRelease wakes this node's waiters on barrier id and retires the
// generation.
func (n *rnode) barRelease(id uint32) {
	if id == doneBarrier {
		close(n.doneCh)
		return
	}
	if tr := n.tracer; tr != nil {
		tr.emit(trace.Event{T: n.clock.Now(), Kind: trace.KindBarrierRelease,
			Node: int32(n.self), Thread: -1, Sync: int32(id)})
	}
	n.hmu.Lock()
	nb := n.nbar[id]
	delete(n.nbar, id)
	n.hmu.Unlock()
	if nb != nil {
		close(nb.ch)
	}
}

// localBarrier blocks until every co-located thread arrives: purely
// node-local, no flush, no invalidation — the run token's handoff
// already orders co-located threads' accesses to node-local memory.
// Caller holds tok.
func (n *rnode) localBarrier(w *Worker, id uint32) {
	n.checkFail()
	obs := n.met != nil || n.tracer != nil
	var t0 sim.Time
	if obs {
		t0 = n.clock.Now()
		if m := n.met; m != nil {
			m.count(n.self, (*metrics.Registry).CountLocalBarrierArrive)
		}
		if tr := n.tracer; tr != nil {
			tr.emit(trace.Event{T: t0, Kind: trace.KindBarrierArrive,
				Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id), Aux: 1})
		}
	}
	n.setState(w, tsBarrier)
	n.hmu.Lock()
	nb := getBar(n.nlbar, id)
	nb.count++
	last := nb.count == n.threads
	if last {
		delete(n.nlbar, id)
		close(nb.ch)
	}
	n.hmu.Unlock()
	if last {
		if tr := n.tracer; tr != nil {
			tr.emit(trace.Event{T: n.clock.Now(), Kind: trace.KindBarrierRelease,
				Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id), Aux: 1})
		}
	}
	n.tok.Unlock()
	select {
	case <-nb.ch:
	case <-n.failCh:
	}
	n.tok.Lock()
	n.setState(w, tsRunning)
	if obs {
		if m := n.met; m != nil {
			m.observeBarrierStall(n.self, n.clock.Now()-t0, true)
		}
	}
	n.checkFail()
}

// nodeRed is one generation of a reduction at one node: per-thread
// contributions indexed by local id, combined in that order once
// everyone has arrived, so the floating-point combine order is fixed
// regardless of scheduling.
type nodeRed struct {
	count  int
	vals   []float64
	ch     chan struct{}
	result float64
	inv    bool // guarded by tok
}

// redManager accumulates node contributions at node 0, indexed by node
// id and combined in node order — the second half of the deterministic
// combine order.
type redManager struct {
	arrived int
	vals    []float64
}

// reduce combines v across all threads with op and returns the result.
// Structurally a barrier whose arrival carries a value and whose
// release carries the combined result. Contributions fold in local-id
// order, not arrival order, so the floating-point result is independent
// of scheduling. Caller holds tok.
func (n *rnode) reduce(w *Worker, id int, v float64, op core.ReduceOp) float64 {
	n.checkFail()
	if m := n.met; m != nil {
		m.count(n.self, (*metrics.Registry).CountReduce)
	}
	n.setState(w, tsReduce)
	rid := uint32(id)
	n.hmu.Lock()
	nr := n.nred[rid]
	if nr == nil {
		nr = &nodeRed{vals: make([]float64, n.threads), ch: make(chan struct{})}
		n.nred[rid] = nr
	}
	nr.vals[w.lid] = v
	nr.count++
	last := nr.count == n.threads
	var nodeVal float64
	if last {
		nodeVal = nr.vals[0]
		for _, x := range nr.vals[1:] {
			nodeVal = core.Combine(op, nodeVal, x)
		}
	}
	n.hmu.Unlock()
	if last {
		n.flushAll()
		if n.self == 0 {
			n.redArrive(rid, 0, op, nodeVal)
		} else {
			n.send(0, msgRedArrive, encodeRedArrive(rid, op, nodeVal))
		}
	}
	n.tok.Unlock()
	select {
	case <-nr.ch:
	case <-n.failCh:
	}
	n.tok.Lock()
	n.setState(w, tsRunning)
	n.checkFail()
	if !nr.inv {
		nr.inv = true
		n.acquireSync()
	}
	return nr.result
}

// redArrive records one node's contribution at the manager; the last
// arrival combines in node order and broadcasts the result.
func (n *rnode) redArrive(id uint32, node int, op core.ReduceOp, v float64) {
	n.hmu.Lock()
	rm := n.mred[id]
	if rm == nil {
		rm = &redManager{vals: make([]float64, n.nodes)}
		n.mred[id] = rm
	}
	rm.vals[node] = v
	rm.arrived++
	done := rm.arrived == n.nodes
	var result float64
	if done {
		delete(n.mred, id)
		result = rm.vals[0]
		for _, x := range rm.vals[1:] {
			result = core.Combine(op, result, x)
		}
	}
	n.hmu.Unlock()
	if !done {
		return
	}
	for i := 1; i < n.nodes; i++ {
		n.send(i, msgRedRelease, encodeRedRelease(id, result))
	}
	n.redRelease(id, result)
}

// redRelease wakes this node's reduction waiters with the result.
func (n *rnode) redRelease(id uint32, result float64) {
	n.hmu.Lock()
	nr := n.nred[id]
	delete(n.nred, id)
	n.hmu.Unlock()
	if nr != nil {
		nr.result = result
		close(nr.ch)
	}
}
