package core

import (
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// ReduceOp selects the combining operator of a reduction.
type ReduceOp uint8

// Reduction operators.
const (
	ReduceSum ReduceOp = iota
	ReduceMax
	ReduceMin
)

// Combine applies op to two partial results; other engines (internal/rt)
// reuse it so every runtime folds reductions with the same operator
// semantics.
func Combine(op ReduceOp, a, b float64) float64 { return op.combine(a, b) }

func (op ReduceOp) combine(a, b float64) float64 {
	switch op {
	case ReduceMax:
		if b > a {
			return b
		}
		return a
	case ReduceMin:
		if b < a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// meetKind names what a rendezvous gathers: every thread of the cluster
// (a global barrier or a reduction), or only a node's own threads (a
// local barrier). Its values are the trace events' Aux.
type meetKind uint8

const (
	meetBarrier = meetKind(trace.BarrierGlobal)
	meetLocal   = meetKind(trace.BarrierLocal)
	meetReduce  = meetKind(trace.BarrierReduce)
)

// meetKey names one rendezvous: its kind and its application-chosen id.
type meetKey struct {
	kind meetKind
	id   int
}

// nodeMeet is one node's state for one rendezvous: local arrivals are
// aggregated, so only the last local thread sends the manager a node
// arrival — the paper's multi-threaded barrier change. acc folds the
// local contributions in arrival order; result is what the release
// handed back.
type nodeMeet struct {
	arrived int
	acc     float64
	result  float64
	waiters []*Thread
}

// arrival is what a node's last local thread sends the manager: the
// node's folded value and, for a barrier, its vector time and its own
// intervals the manager has not seen.
type arrival struct {
	from  int
	v     float64
	vt    VClock
	infos []*IntervalInfo
}

// episode is the manager's (node 0's) state for one crossing of a global
// rendezvous: the node arrivals so far, their values folded in arrival
// order, and each node's arrival. Once complete it is also the one
// payload every node's release message shares: for a barrier, the
// manager's notices and vector time.
type episode struct {
	arrived int
	acc     float64
	from    []arrival
	key     meetKey
	ns      notices
	vt      VClock
}

func (n *node) meetAt(key meetKey) *nodeMeet {
	m := n.meets[key]
	if m == nil {
		if n.meets == nil {
			n.meets = make(map[meetKey]*nodeMeet)
		}
		m = &nodeMeet{}
		n.meets[key] = m
	}
	return m
}

// Barrier synchronizes all threads on all nodes. Arrival is an LRC
// release (the open interval closes); departure is an acquire (the
// release message carries every write notice the node has not seen).
func (t *Thread) Barrier(id int) { t.meet(meetKey{meetBarrier, id}, 0, ReduceSum) }

// LocalBarrier synchronizes only the threads co-located on the calling
// thread's node. It costs no messages and no consistency actions: local
// threads share physical memory. This is the mechanism behind the
// paper's `r` source modification (per-node reduction aggregation).
func (t *Thread) LocalBarrier(id int) { t.meet(meetKey{meetLocal, id}, 0, ReduceSum) }

// ReduceF64 combines v across all threads of the system and returns the
// combined value to every thread. This is CVM's built-in reduction
// support: local contributions are aggregated per node first, so each
// reduction costs one message pair per node regardless of the threading
// level. (The paper notes its applications predate this interface and
// hand-roll reductions with locks or local barriers instead.)
func (t *Thread) ReduceF64(id int, v float64, op ReduceOp) float64 {
	return t.meet(meetKey{meetReduce, id}, v, op)
}

// meet blocks t until every thread key's kind gathers has arrived, and
// returns the folded value. All but the last local thread block at once.
// The last one releases a local barrier itself, after charging its
// bookkeeping; for a global rendezvous it leaves for the manager and
// blocks until the release.
func (t *Thread) meet(key meetKey, v float64, op ReduceOp) float64 {
	n := t.node
	m := n.meetAt(key)
	if m.arrived == 0 {
		m.acc = v
	} else {
		m.acc = op.combine(m.acc, v)
	}
	m.arrived++
	a0 := t.task.Now() // the arrival: a thread's barrier stall runs from here
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: a0, Kind: trace.KindBarrierArrive,
			Node: int32(n.id), Thread: int32(t.gid), Sync: int32(key.id), Aux: int64(key.kind)})
	}
	last := m.arrived == n.sys.cfg.ThreadsPerNode
	if last && key.kind == meetLocal {
		t.task.Advance(t.sys.cfg.LocalBarrierCost)
		n.release(key, 0, t.task.Now(), t.gid, t.task.Now()-a0)
		return 0
	}
	m.waiters = append(m.waiters, t)
	if last {
		t.leave(key, m.acc, op)
	}
	t.block(trace.ReasonBarrier, a0, trace.Event{Sync: int32(key.id), Aux: int64(key.kind)})
	return m.result
}

// leave sends the node's arrival at key to the manager, node 0. A
// barrier arrival is an LRC release: the open interval closes first.
// Node 0's own arrival is an engine event rather than a call, so that if
// it completes the episode the release finds every local waiter, this
// thread included, already blocked.
func (t *Thread) leave(key meetKey, v float64, op ReduceOp) {
	n, sys := t.node, t.sys
	a := arrival{from: n.id, v: v}
	bytes := reduceMsgBytes
	if key.kind == meetBarrier {
		n.closeInterval(t)
		n.ensureIntervals()
		// The arrival ships the node's own intervals the manager lacks.
		a.vt, a.infos = n.vt.Clone(), after(n.intervals[n.id], n.barrierSentIdx)
		n.barrierSentIdx = n.curIdx
		bytes = barrierMsgBytes + a.vt.wireBytes() + infosBytes(a.infos)
	}
	gather := func() { sys.gather(key, op, a) }
	if n.id == 0 {
		t.task.Schedule(t.task.Now(), gather)
		return
	}
	sys.send(t.task, NodeID(n.id), 0, ClassBarrier, bytes, gather)
}

// gather counts one node arrival at the manager (engine context). The
// last one completes the episode: the manager releases every node,
// sending each, for a barrier, the interval knowledge its arrival vector
// time does not cover, and for a reduction the folded value.
func (s *System) gather(key meetKey, op ReduceOp, a arrival) {
	ep := s.episodes[key]
	if ep == nil {
		if s.episodes == nil {
			s.episodes = make(map[meetKey]*episode)
		}
		ep = &episode{acc: a.v, from: make([]arrival, s.cfg.Nodes)}
		s.episodes[key] = ep
	} else {
		ep.acc = op.combine(ep.acc, a.v)
	}
	ep.arrived++
	ep.from[a.from] = a
	if ep.arrived < s.cfg.Nodes {
		return
	}
	delete(s.episodes, key)

	// Only now does the manager learn the arrivals' intervals. Node 0 is
	// also a participant: applied at each arrival, they would invalidate
	// pages its own threads were still faulting in, and a later arrival's
	// diff could then land on a page after a diff it happens-before.
	mgr := s.nodes[0]
	for _, b := range ep.from {
		mgr.applyList(b.from, b.infos)
	}
	ep.key = key
	if key.kind == meetBarrier {
		// The manager has merged every node's interval knowledge
		// (arrivals carried it); its vt now dominates all arrivals.
		ep.ns, ep.vt = mgr.notices(), mgr.vt.Clone()
	}
	for to := 1; to < s.cfg.Nodes; to++ {
		bytes := reduceMsgBytes
		if ep.vt != nil {
			bytes = barrierMsgBytes + ep.vt.wireBytes() + ep.ns.bytesSince(ep.from[to].vt)
		}
		n := s.nodes[to]
		if n.relIn = ep; n.relStep == nil {
			n.relStep = n.applyRelease
		}
		s.send(nil, 0, NodeID(to), ClassBarrier, bytes, n.relStep)
	}
	mgr.release(key, ep.acc, mgr.proc.LocalNow(), -1, 0)
}

// applyRelease delivers the release message in flight to n (engine
// context, as n.relStep). A node has at most one: it cannot arrive at its
// next rendezvous before this one releases.
func (n *node) applyRelease() {
	ep := n.relIn
	n.relIn = nil
	if ep.vt != nil {
		n.applyNotices(ep.ns, ep.vt)
	}
	n.release(ep.key, ep.acc, n.proc.LocalNow(), -1, 0)
}

// release wakes every local thread waiting at key, handing them result.
// at and thread stamp the wake and the trace event: the node's engine
// clock and -1 for a global release, the releasing thread's clock and id
// for a local barrier, whose own stall is the event's Dur.
func (n *node) release(key meetKey, result float64, at sim.Time, thread int, stall sim.Time) {
	m := n.meetAt(key)
	waiters := m.waiters
	m.waiters, m.arrived, m.result = nil, 0, result
	if tr := n.sys.tracer; tr != nil && key.kind != meetReduce {
		tr.Emit(trace.Event{T: at, Dur: stall, Kind: trace.KindBarrierRelease,
			Node: int32(n.id), Thread: int32(thread), Sync: int32(key.id), Aux: int64(key.kind)})
	}
	for _, w := range waiters {
		n.sys.eng.WakeAt(w.task, at)
	}
}

const (
	barrierMsgBytes = 16
	reduceMsgBytes  = 24
)
