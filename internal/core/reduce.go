package core

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

// nodeReduce aggregates local contributions to one global reduction.
type nodeReduce struct {
	arrived int
	acc     float64
	result  float64
	waiters []*Thread
}

// reduceEpisode is the manager-side state of one global reduction.
type reduceEpisode struct {
	arrived int
	acc     float64
	started bool
}

// ReduceF64 combines v across all threads of the system and returns the
// combined value to every thread. This is CVM's built-in reduction
// support: local contributions are aggregated per node first, so each
// reduction costs one message pair per node regardless of the threading
// level. (The paper notes its applications predate this interface and
// hand-roll reductions with locks or local barriers instead.)
func (t *Thread) ReduceF64(id int, v float64, op ReduceOp) float64 {
	n := t.node
	if m := t.sys.met; m != nil {
		m.CountReduce(n.id)
	}
	r := n.reduces[id]
	if r == nil {
		if n.reduces == nil {
			n.reduces = make(map[int]*nodeReduce)
		}
		r = &nodeReduce{}
		n.reduces[id] = r
	}
	if r.arrived == 0 {
		r.acc = v
	} else {
		r.acc = op.combine(r.acc, v)
	}
	r.arrived++
	if r.arrived < n.sys.cfg.ThreadsPerNode {
		r.waiters = append(r.waiters, t)
		t.block(ReasonBarrier)
		return r.result
	}

	// Last local thread ships the node's contribution to the manager.
	sys := t.sys
	const mgr = 0
	contribution := r.acc
	r.waiters = append(r.waiters, t)
	if n.id == mgr {
		t.task.Schedule(t.task.Now(), func() {
			sys.reduceArrival(id, contribution, op)
		})
		t.block(ReasonBarrier)
		return r.result
	}
	sys.sendFromTask(t.task, NodeID(n.id), NodeID(mgr),
		ClassBarrier, reduceMsgBytes, func() {
			sys.reduceArrival(id, contribution, op)
		})
	t.block(ReasonBarrier)
	return r.result
}

// reduceArrival runs at the manager in engine context.
func (s *System) reduceArrival(id int, v float64, op ReduceOp) {
	ep := s.reduceEpisodes[id]
	if ep == nil {
		if s.reduceEpisodes == nil {
			s.reduceEpisodes = make(map[int]*reduceEpisode)
		}
		ep = &reduceEpisode{}
		s.reduceEpisodes[id] = ep
	}
	if !ep.started {
		ep.acc = v
		ep.started = true
	} else {
		ep.acc = op.combine(ep.acc, v)
	}
	ep.arrived++
	if ep.arrived < s.cfg.Nodes {
		return
	}
	delete(s.reduceEpisodes, id)
	result := ep.acc
	for nodeID := 1; nodeID < s.cfg.Nodes; nodeID++ {
		nodeID := nodeID
		s.sendFromHandler(NodeID(0), NodeID(nodeID),
			ClassBarrier, reduceMsgBytes, func() {
				s.nodes[nodeID].finishReduce(id, result)
			})
	}
	s.nodes[0].finishReduce(id, result)
}

// finishReduce publishes the global result and wakes the node's waiters.
func (n *node) finishReduce(id int, result float64) {
	r := n.reduces[id]
	r.result = result
	waiters := r.waiters
	r.waiters = nil
	r.arrived = 0
	for _, w := range waiters {
		n.sys.eng.Wake(w.task)
	}
}

const reduceMsgBytes = 24
