package rt

import (
	"fmt"
	"math"

	"cvm/internal/core"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// lockWaiter is one (node, reqID) request in a lock's queue at its
// manager (lock id % nodes). The queue is FIFO and its head holds the
// lock.
type lockWaiter struct {
	node  int
	reqID uint32
}

// lockReq handles a lock request at the manager: queue it, and grant it
// at once when nobody is ahead.
func (n *rnode) lockReq(from int, reqID, id uint32) {
	n.hmu.Lock()
	n.locks[id] = append(n.locks[id], lockWaiter{from, reqID})
	free := len(n.locks[id]) == 1
	n.hmu.Unlock()
	if free {
		n.post(from, msgLockGrant, le.AppendUint32(nil, reqID))
	}
}

// lockRel handles a release at the manager: the holder leaves the queue
// and the next waiter, if any, is granted the lock.
func (n *rnode) lockRel(id uint32) {
	n.hmu.Lock()
	q := n.locks[id]
	if len(q) > 0 {
		q = q[1:]
		n.locks[id] = q
	}
	n.hmu.Unlock()
	if len(q) > 0 {
		n.post(q[0].node, msgLockGrant, le.AppendUint32(nil, q[0].reqID))
	}
}

// lock acquires global lock id for the calling worker. Caller holds tok.
func (n *rnode) lock(w *Worker, id int) {
	n.checkFail()
	n.request(w, waitLock, uint32(id), id%n.nodes, msgLockReq)
	n.held[uint32(id)] = w.gid
	n.acquireSync(w)
}

// unlock releases global lock id: flush first, so the next holder's
// post-acquire reads observe everything written inside the critical
// section (release consistency's release half). A thread that does not
// hold the lock fails the node — the manager could only drop its release
// or hand the lock on under the real holder. Caller holds tok.
func (n *rnode) unlock(w *Worker, id int) {
	n.checkFail()
	if g, ok := n.held[uint32(id)]; !ok || g != w.gid {
		n.setFail(fmt.Errorf("thread %d: Unlock of lock %d not held by this thread", w.gid, id))
		n.checkFail()
	}
	delete(n.held, uint32(id))
	n.flushAll(w)
	if tr := n.tracer; tr != nil {
		tr.emit(trace.Event{T: n.clock.Now(), Kind: trace.KindLockRelease,
			Node: int32(n.self), Thread: int32(w.gid), Sync: int32(id)})
	}
	n.post(id%n.nodes, msgLockRel, le.AppendUint32(nil, uint32(id)))
}

// meetKey names one rendezvous: a global barrier, a reduction or a local
// barrier, and its application-chosen id.
type meetKey struct {
	kind waitKind
	id   uint32
}

// doneKey is the completion rendezvous, on a reserved barrier id.
var doneKey = meetKey{waitBarrier, ^uint32(0)}

// decodeMeet reads an arrival or release payload: the id leads, and a
// payload that goes on carries a reduction's value in its last 8 bytes.
func decodeMeet(p []byte) (meetKey, float64) {
	if len(p) == 4 {
		return meetKey{waitBarrier, le.Uint32(p)}, 0
	}
	return meetKey{waitReduce, le.Uint32(p)}, math.Float64frombits(le.Uint64(p[len(p)-8:]))
}

// meet is one generation of a rendezvous. At a node (rnode.meets): the
// local arrival count, every thread's value by local id, the channel
// waiters block on (closed on release), the result, and the flag the
// first post-release waker sets so the cache is dropped exactly once per
// generation. At the manager, node 0 (rnode.gathers): the node arrival
// count and every node's value by node id. The entry leaves its table on
// release, so reuse of an id starts a fresh generation.
type meet struct {
	count  int
	vals   []float64
	ch     chan []byte
	result float64
	synced bool // guarded by tok
}

// fold combines vals in index order — local-id order at a node, node
// order at the manager — so a floating-point result is independent of
// scheduling.
func fold(op core.ReduceOp, vals []float64) float64 {
	acc := vals[0]
	for _, x := range vals[1:] {
		acc = core.Combine(op, acc, x)
	}
	return acc
}

// meetUp blocks until every thread that key's kind gathers has arrived,
// and returns the combined value. A global barrier is a meet without a
// value, a reduction a meet with one: the last local arriver flushes the
// node's dirty pages (all co-located threads are blocked here, so the
// flush is complete) and sends the manager one node-level arrival; the
// release is an acquire. A local barrier is a meet without a manager
// leg, a flush or an invalidation: the last arriver releases it without
// blocking, as in the simulator, and the run token's handoff already
// orders co-located threads' accesses to node-local memory. Caller holds
// tok.
func (n *rnode) meetUp(w *Worker, key meetKey, v float64, op core.ReduceOp) float64 {
	n.checkFail()
	n.hmu.Lock()
	m := n.meets[key]
	if m == nil {
		m = &meet{vals: make([]float64, n.threads), ch: make(chan []byte)}
		n.meets[key] = m
	}
	m.vals[w.lid] = v
	m.count++
	last := m.count == n.threads
	n.hmu.Unlock()
	if last && key.kind == waitLocalBarrier {
		t0 := n.clock.Now()
		if tr := n.tracer; tr != nil {
			tr.emit(trace.Event{T: t0, Kind: trace.KindBarrierArrive, Node: int32(n.self),
				Thread: int32(w.gid), Sync: int32(key.id), Aux: trace.BarrierLocal})
		}
		n.release(key, 0, w.gid, t0)
		return 0
	}
	n.wait(w, key.kind, key.id, -1, m.ch, func() {
		if last {
			n.flushAll(w)
			p := le.AppendUint32(make([]byte, 0, 13), key.id)
			if key.kind == waitReduce {
				p = le.AppendUint64(append(p, byte(op)), math.Float64bits(fold(op, m.vals)))
			}
			n.post(0, msgArrive, p)
		}
	})
	if key.kind != waitLocalBarrier && !m.synced {
		m.synced = true
		n.acquireSync(w)
	}
	return m.result
}

// arrive records node from's arrival payload p at the manager; the last
// one folds the values in node order and broadcasts the release.
func (n *rnode) arrive(from int, p []byte) {
	key, v := decodeMeet(p)
	n.hmu.Lock()
	g := n.gathers[key]
	if g == nil {
		g = &meet{vals: make([]float64, n.nodes)}
		n.gathers[key] = g
	}
	g.vals[from] = v
	g.count++
	done := g.count == n.nodes
	if done {
		delete(n.gathers, key)
	}
	n.hmu.Unlock()
	if !done {
		return
	}
	rel := p[:4:4]
	if key.kind == waitReduce {
		rel = le.AppendUint64(rel, math.Float64bits(fold(core.ReduceOp(p[4]), g.vals)))
	}
	for i := 1; i <= n.nodes; i++ {
		n.post(i%n.nodes, msgRelease, rel) // this node last
	}
}

// release wakes this node's waiters at key with the result and retires
// the generation. thread is the releasing thread of a local barrier,
// which arrived at a0 and whose stall the event carries; -1 for a
// release from the manager.
func (n *rnode) release(key meetKey, result float64, thread int, a0 sim.Time) {
	if tr := n.tracer; tr != nil && key.kind != waitReduce && key != doneKey {
		e := trace.Event{T: n.clock.Now(), Kind: trace.KindBarrierRelease, Node: int32(n.self),
			Thread: int32(thread), Sync: int32(key.id), Aux: waitKinds[key.kind].aux}
		if thread >= 0 {
			e.Dur = e.T - a0
		}
		tr.emit(e)
	}
	n.hmu.Lock()
	m := n.meets[key]
	delete(n.meets, key)
	n.hmu.Unlock()
	if m != nil {
		m.result = result
		close(m.ch)
	}
}
