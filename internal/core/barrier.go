package core

import (
	"cvm/internal/trace"
)

// nodeBarrier is one node's state for one global barrier: local arrivals
// are aggregated so only the last local thread sends a per-node arrival
// message — the paper's multi-threaded barrier change.
type nodeBarrier struct {
	id      int
	arrived int
	waiters []*Thread
}

// barrierEpisode is the manager-side state of one barrier crossing.
type barrierEpisode struct {
	arrived   int
	arrivalVT []VClock // per node, nil until that node arrives
}

func (n *node) barrierAt(id int) *nodeBarrier {
	b := n.barriers[id]
	if b == nil {
		if n.barriers == nil {
			n.barriers = make(map[int]*nodeBarrier)
		}
		b = &nodeBarrier{id: id}
		n.barriers[id] = b
	}
	return b
}

// Barrier synchronizes all threads on all nodes. Arrival is an LRC
// release (the open interval closes); departure is an acquire (the
// release message carries every write notice the node has not seen).
// All but the last local thread switch out on arrival; the last sends a
// single per-node arrival carrying the node's interval knowledge.
func (t *Thread) Barrier(id int) {
	n := t.node
	b := n.barrierAt(id)
	b.arrived++
	if m := t.sys.met; m != nil {
		m.CountBarrierArrive(n.id)
	}
	a0 := t.task.Now() // arrival instant, for the BarrierStall metric
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindBarrierArrive,
			Node: int32(n.id), Thread: int32(t.gid), Sync: int32(id)})
	}
	if b.arrived < n.sys.cfg.ThreadsPerNode {
		b.waiters = append(b.waiters, t)
		t.block(ReasonBarrier)
		t.barrierStall(a0, false)
		return
	}

	// Last local thread: close the interval and send the node arrival.
	n.closeInterval(t)
	sys := t.sys
	const mgr = 0
	vt := n.vt.Clone()
	obs := n.takeAdaptObs() // nil unless adaptive coherence is on
	b.waiters = append(b.waiters, t)
	if n.id == mgr {
		// The manager's own arrival is deferred to engine context so
		// that, if it is the global last arrival, the release logic
		// finds every waiter (including this thread) already blocked.
		// Queued update pushes flush in barrierArrival, after the
		// release broadcast.
		t.task.Schedule(t.task.Now(), func() {
			if obs != nil {
				sys.adapt.noteObs(mgr, obs)
			}
			sys.barrierArrival(id, mgr, vt)
		})
		t.block(ReasonBarrier)
		t.barrierStall(a0, false)
		return
	}
	infos := n.ownInfosSince() // manager learns our new intervals
	bytes := barrierMsgBytes + vt.wireBytes() + infosBytes(infos) + obs.wireBytes()
	sys.sendFromTask(t.task, NodeID(n.id), NodeID(mgr),
		ClassBarrier, bytes, func() {
			sys.nodes[mgr].applyInfos(infos, nil)
			if obs != nil {
				sys.adapt.noteObs(n.id, obs)
			}
			sys.barrierArrival(id, n.id, vt)
		})
	// Queued update pushes flush in engine context behind the departed
	// arrival message: subscriber caches fill while the cluster is
	// barrier-waiting, and the blocked thread's clock never advances
	// (the release may arrive while the flush is still draining egress).
	if len(n.pendingPush) > 0 {
		t.task.Schedule(t.task.Now(), func() { n.flushPushes(nil) })
	}
	t.block(ReasonBarrier)
	t.barrierStall(a0, false)
}

// ownInfosSince returns the node's own intervals not yet shipped to the
// barrier manager.
func (n *node) ownInfosSince() []*IntervalInfo {
	if n.intervals == nil {
		return nil
	}
	infos := n.intervals[n.id]
	i := len(infos)
	for i > 0 && infos[i-1].Idx > n.barrierSentIdx {
		i--
	}
	out := infos[i:]
	n.barrierSentIdx = n.curIdx
	return out
}

// barrierArrival runs at the manager (engine context for remote nodes,
// thread context for the manager's own arrival). When the last node
// arrives the manager releases everyone, sending each node the interval
// knowledge its arrival vector time does not cover.
func (s *System) barrierArrival(id, from int, vt VClock) {
	ep := s.episodes[id]
	if ep == nil {
		if s.episodes == nil {
			s.episodes = make(map[int]*barrierEpisode)
		}
		ep = &barrierEpisode{arrivalVT: make([]VClock, s.cfg.Nodes)}
		s.episodes[id] = ep
	}
	ep.arrived++
	ep.arrivalVT[from] = vt
	if ep.arrived < s.cfg.Nodes {
		return
	}
	delete(s.episodes, id)

	// The barrier completion is the adaptation point: all threads are
	// blocked, so mode changes piggybacked on the releases apply
	// atomically across the cluster.
	var rel *adaptRelease
	if s.adapt != nil {
		rel = s.adapt.decide()
	}

	mgr := s.nodes[0]
	// The manager has merged every node's interval knowledge (arrivals
	// carried it); its vt now dominates all arrivals.
	for nodeID := 0; nodeID < s.cfg.Nodes; nodeID++ {
		if nodeID == 0 {
			continue
		}
		nodeID := nodeID
		infos := mgr.newInfosSince(ep.arrivalVT[nodeID])
		bytes := barrierMsgBytes + mgr.vt.wireBytes() + infosBytes(infos) + rel.wireBytes()
		mgrVT := mgr.vt.Clone()
		s.sendFromHandler(NodeID(0), NodeID(nodeID),
			ClassBarrier, bytes, func() {
				n := s.nodes[nodeID]
				n.applyInfos(infos, mgrVT)
				if rel != nil {
					n.applyAdaptRelease(rel)
				}
				n.releaseBarrier(id)
			})
	}
	if rel != nil {
		mgr.applyAdaptRelease(rel)
	}
	mgr.releaseBarrier(id)
	// The manager's own update pushes flush last: the release broadcast
	// above must not queue behind bulk data on the manager's egress.
	mgr.flushPushes(nil)
}

// releaseBarrier wakes every local thread blocked at the barrier. It
// always runs in engine context: remote releases arrive as messages, and
// the manager's own arrival is deferred to an engine event.
func (n *node) releaseBarrier(id int) {
	b := n.barrierAt(id)
	waiters := b.waiters
	b.waiters = nil
	b.arrived = 0
	if tr := n.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindBarrierRelease,
			Node: int32(n.id), Thread: -1, Sync: int32(id)})
	}
	for _, w := range waiters {
		n.sys.eng.Wake(w.task)
	}
}

// LocalBarrier synchronizes only the threads co-located on the calling
// thread's node. It costs no messages and no consistency actions: local
// threads share physical memory. This is the mechanism behind the
// paper's `r` source modification (per-node reduction aggregation).
func (t *Thread) LocalBarrier(id int) {
	n := t.node
	key := localBarrierKeyBase + id
	b := n.barrierAt(key)
	b.arrived++
	if m := t.sys.met; m != nil {
		m.CountLocalBarrierArrive(n.id)
	}
	a0 := t.task.Now()
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindBarrierArrive,
			Node: int32(n.id), Thread: int32(t.gid), Sync: int32(id), Aux: 1})
	}
	if b.arrived < n.sys.cfg.ThreadsPerNode {
		b.waiters = append(b.waiters, t)
		t.block(ReasonBarrier)
		t.barrierStall(a0, true)
		return
	}
	waiters := b.waiters
	b.waiters = nil
	b.arrived = 0
	t.task.Advance(t.sys.cfg.LocalBarrierCost)
	t.barrierStall(a0, true)
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindBarrierRelease,
			Node: int32(n.id), Thread: int32(t.gid), Sync: int32(id), Aux: 1})
	}
	for _, w := range waiters {
		t.sys.eng.WakeAt(w.task, t.task.Now())
	}
}

const (
	barrierMsgBytes     = 16
	localBarrierKeyBase = 1 << 20
)
