// Package netsim models the cluster interconnect: per-message CPU
// overheads, wire latency, per-byte transfer cost, and serialization at
// each node's egress and ingress. The default parameters are calibrated so
// the end-to-end costs match those the paper measured on the Alpha/ATM
// cluster (§4.1): 937 µs 2-hop lock acquires, 1382 µs 3-hop acquires,
// ~1100 µs remote page faults, and 2470 µs minimal 8-processor barriers.
//
// The package also keeps the per-class message and byte counts that
// Table 2 reports.
package netsim

import (
	"cmp"
	"fmt"
	"slices"

	"cvm/internal/sim"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// NodeID identifies a node (processor) in the simulated cluster. It is
// the shared transport vocabulary type: every backend (this simulator,
// loopback, TCP) addresses nodes the same way.
type NodeID = transport.NodeID

// Class categorizes messages for Table 2 accounting.
type Class = transport.Class

// Message classes. Data-carrying traffic (page and diff requests and
// replies) is classed ClassDiff, following the paper: "Diff messages are
// used to satisfy remote data requests."
const (
	ClassBarrier = transport.ClassBarrier
	ClassLock    = transport.ClassLock
	ClassDiff    = transport.ClassDiff
	numClasses   = transport.NumClasses
)

// Params are the interconnect cost parameters.
type Params struct {
	// SendOverhead is the CPU cost of sending one message. For sends from
	// task context it is charged to the sending thread; for sends from
	// message handlers it serializes the node's egress.
	SendOverhead sim.Time

	// RecvOverhead is the CPU cost of receiving one message; concurrent
	// arrivals at one node serialize by this amount.
	RecvOverhead sim.Time

	// WireLatency is the one-way propagation plus network switching time.
	WireLatency sim.Time

	// PerKByte is the additional transfer time per KiB of payload.
	PerKByte sim.Time
}

// transfer reports the payload transfer time for a message of n bytes.
func (p Params) transfer(n int) sim.Time {
	return sim.Time(n) * p.PerKByte / 1024
}

// DefaultParams returns parameters calibrated to the paper's measured
// costs. With S=R=128 µs, W=209 µs: a 2-hop lock is 2(S+W+R) ≈ 930 µs
// (paper: 937), a 3-hop lock ≈ 1395 µs (paper: 1382), a remote page fault
// is 49 (mprotect) + 98 (signal) + 930 + 8 KB·PerKByte/1024 ≈ 1100 µs (paper:
// ~1100), and a minimal 8-node barrier ≈ 2466 µs (paper: 2470).
func DefaultParams() Params {
	return Params{
		SendOverhead: 128 * sim.Microsecond,
		RecvOverhead: 128 * sim.Microsecond,
		WireLatency:  209 * sim.Microsecond,
		PerKByte:     2870 * sim.Nanosecond,
	}
}

// OneWay reports the uncontended one-way latency for a message of the
// given payload size, from send initiation to handler start.
func (p Params) OneWay(bytes int) sim.Time {
	return p.SendOverhead + p.transfer(bytes) + p.WireLatency + p.RecvOverhead
}

// Lookahead reports a lower bound on the time between a message being
// handed to the network on one node and its handler running on another:
// wire latency plus receive overhead. The conservative parallel engine
// uses this bound as its window lookahead, so it must hold from the
// instant the message is recorded (the deferred outbox append), not from
// send initiation. Send overhead is deliberately excluded: a task can
// charge it across a window boundary — entering the send before W0 and
// reaching the outbox just after — in which case only the charge's tail
// lands inside the window. Departure time, payload transfer,
// egress/ingress queueing, and fault-injected delays only add to the
// bound.
func (p Params) Lookahead() sim.Time {
	return p.WireLatency + p.RecvOverhead
}

// Stats holds cumulative per-class message and byte counts.
type Stats = transport.Stats

// Classes returns every message class in Table 2 column order. Tests
// use it to guard that new classes are reflected in the accounting
// arrays and the Table 2 writer.
func Classes() []Class { return transport.Classes() }

// Network simulates the interconnect between a fixed set of nodes.
type Network struct {
	eng    *sim.Engine
	params Params

	egressFree  []sim.Time // per-node time the NIC egress frees up
	ingressFree []sim.Time // per-node time the ingress frees up

	stats  Stats
	tracer trace.Tracer // nil when tracing and metrics are off
	msgID  int64        // trace message id linking send to delivery

	// Fault model (nil when the network is reliable). chanIdx holds the
	// per-directed-channel message counters keying the fault PRNG,
	// faultCounts each node's retransmissions and discarded replicas.
	faults      *FaultParams
	chanIdx     []uint64
	faultCounts []FaultCounts

	// Deferred mode (SetDeferred), used by the conservative windowed
	// engine: sends enqueue in per-sender outboxes instead of scheduling
	// deliveries immediately, and CommitWindow drains them between
	// windows. Egress serialization is still resolved at send time (it
	// is sender-local); everything that touches receiver or global state
	// — ingress serialization, traffic accounting, fault rolls, message
	// ids, delivery scheduling — moves to the commit.
	deferred bool
	outbox   [][]wireMsg
}

// wireMsg is one deferred message waiting in its sender's outbox.
type wireMsg struct {
	sendT      sim.Time // send initiation, for deterministic commit order
	depart     sim.Time // egress departure (send-time computed)
	egressWait sim.Time // sender-NIC serialization delay, traced at commit
	to         NodeID
	class      Class
	bytes      int
	deliver    func()
}

// New returns a network connecting nodes 0..nodes-1.
func New(eng *sim.Engine, nodes int, params Params) *Network {
	n := new(Network)
	n.Init(eng, nodes, params)
	return n
}

// Init configures n in place to connect nodes 0..nodes-1, replacing any
// previous state. It exists so a Network can be embedded by value in a
// larger system; egress and ingress share one backing allocation.
func (n *Network) Init(eng *sim.Engine, nodes int, params Params) {
	free := make([]sim.Time, 2*nodes)
	*n = Network{
		eng:         eng,
		params:      params,
		egressFree:  free[:nodes:nodes],
		ingressFree: free[nodes:],
	}
}

// Params returns the network's cost parameters.
func (n *Network) Params() Params { return n.params }

// Name identifies this interconnect backend in error messages and run
// reports (core.Interconnect).
func (n *Network) Name() string { return "netsim" }

// PeerAddr describes a peer in backend terms (core.Interconnect). The
// simulated cluster has no wire addresses, so peers are named by node id.
func (n *Network) PeerAddr(to NodeID) string { return fmt.Sprintf("node %d", to) }

// SetDeferred switches the network into deferred (windowed) delivery
// mode. Must be set before traffic flows and requires the engine to run
// its conservative windowed loop, whose window hook calls CommitWindow.
func (n *Network) SetDeferred(on bool) {
	n.deferred = on
	if on && n.outbox == nil {
		n.outbox = make([][]wireMsg, len(n.egressFree))
	}
}

// SetTracer installs a protocol event tracer (nil disables tracing).
// Every transmitted message then records a send event at egress
// departure and a deliver event at handler start, linked by a message
// id for flow rendering and carrying the egress and ingress queueing.
func (n *Network) SetTracer(tr trace.Tracer) { n.tracer = tr }

// Stats returns a snapshot of the per-class traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// ResetStats zeroes the traffic and fault counters (used after the
// initialization phase so tables reflect steady-state behaviour, as in
// the paper).
func (n *Network) ResetStats() {
	n.stats = Stats{}
	clear(n.faultCounts)
}

// SendFromTask transmits a message from the calling task's node. The
// sender's CPU overhead is charged to the task; deliver runs in engine
// context at the receiver once the message has been transferred and the
// receiver's ingress is free. from and to must differ: local communication
// never touches the network in CVM.
func (n *Network) SendFromTask(t *sim.Task, from, to NodeID, class Class, bytes int, deliver func()) {
	if from == to {
		panic("netsim: SendFromTask with from == to")
	}
	t.Advance(n.params.SendOverhead)
	// The egress lane is shared with this node's handlers and the arrival
	// accounting with every node, so both wait for the sender's turn.
	t.Sync()
	depart := maxTime(t.Now(), n.egressFree[from])
	wait := depart - t.Now()
	depart += n.params.transfer(bytes)
	n.egressFree[from] = depart
	if n.deferred {
		n.outbox[from] = append(n.outbox[from], wireMsg{
			sendT: t.Now(), depart: depart, egressWait: wait,
			to: to, class: class, bytes: bytes, deliver: deliver})
		return
	}
	// Task.Schedule lowers the sender's causality horizon so the sender
	// cannot run past the delivery before it is applied.
	t.Schedule(n.route(depart, wait, from, to, class, bytes, deliver))
}

// SendFromHandler transmits a message from engine context (a message
// handler acting for node from, e.g. a lock manager forwarding a request).
// The send serializes the node's egress by SendOverhead plus transfer time.
func (n *Network) SendFromHandler(from, to NodeID, class Class, bytes int, deliver func()) {
	if from == to {
		panic("netsim: SendFromHandler with from == to")
	}
	if n.deferred {
		now := n.eng.Procs()[int(from)].LocalNow()
		depart := maxTime(now, n.egressFree[from])
		wait := depart - now
		depart += n.params.SendOverhead + n.params.transfer(bytes)
		n.egressFree[from] = depart
		n.outbox[from] = append(n.outbox[from], wireMsg{
			sendT: now, depart: depart, egressWait: wait,
			to: to, class: class, bytes: bytes, deliver: deliver})
		return
	}
	depart := maxTime(n.eng.Now(), n.egressFree[from])
	wait := depart - n.eng.Now()
	depart += n.params.SendOverhead + n.params.transfer(bytes)
	n.egressFree[from] = depart
	n.eng.Schedule(n.route(depart, wait, from, to, class, bytes, deliver))
}

// route accounts a departing message that queued wait at the egress and
// returns when its handler runs and what runs then: deliver, unless the
// fault model lost every attempt (faultedSend).
func (n *Network) route(depart, wait sim.Time, from, to NodeID, class Class, bytes int, deliver func()) (sim.Time, func()) {
	if n.faults == nil {
		return n.arrival(depart, wait, from, to, class, bytes, 0), deliver
	}
	return n.faultedSend(depart, wait, from, to, class, bytes, deliver)
}

// arrival accounts the message and computes when its handler runs at the
// receiver, serializing concurrent arrivals at the ingress. wait is its
// egress queueing, for the send event (-1: a fault-model replica or
// retransmission, which never queued). extra is fault-injected delivery
// delay (backoff, jitter, reorder); it is applied after the ingress
// serialization point so a delayed message does not head-of-line-block
// traffic that physically arrived on time — which is what lets later
// messages genuinely overtake it.
func (n *Network) arrival(depart, wait sim.Time, from, to NodeID, class Class, bytes int, extra sim.Time) sim.Time {
	n.stats.Msgs[class]++
	n.stats.Bytes[class] += int64(bytes)
	arrive := depart + n.params.WireLatency
	ingress := maxTime(arrive, n.ingressFree[to]) // the ingress frees for this message
	handlerAt := ingress + n.params.RecvOverhead
	n.ingressFree[to] = handlerAt
	handlerAt += extra
	if n.tracer != nil {
		n.msgID++
		n.tracer.Emit(trace.Event{T: depart, Dur: wait, Kind: trace.KindMsgSend,
			Node: int32(from), Thread: -1, Peer: int32(to),
			Sync: int32(class), Arg: int64(bytes), Aux: n.msgID})
		n.tracer.Emit(trace.Event{T: handlerAt, Dur: handlerAt - depart, Kind: trace.KindMsgDeliver,
			Node: int32(to), Thread: -1, Peer: int32(from), Page: int32(ingress - arrive),
			Sync: int32(class), Arg: int64(bytes), Aux: n.msgID})
	}
	return handlerAt
}

// CommitWindow drains every sender's outbox with the engine quiescent
// between two windows of limit's window. Senders are processed in node
// order; each sender's messages in send-initiation order (a stable sort,
// so same-instant sends keep program order; an outbox is usually in that
// order already). This order is a pure function of simulation state, so
// traffic accounting, fault rolls, message ids, and ingress
// serialization are identical at every worker count. Every delivery must
// land at or after limit — the lookahead guarantee — or the conservative
// schedule would be unsound; violations panic loudly.
func (n *Network) CommitWindow(limit sim.Time) {
	procs := n.eng.Procs()
	for from, msgs := range n.outbox {
		if len(msgs) == 0 {
			continue
		}
		if !slices.IsSortedFunc(msgs, bySendT) {
			slices.SortStableFunc(msgs, bySendT)
		}
		for i := range msgs {
			m := &msgs[i]
			handlerAt, fn := n.route(m.depart, m.egressWait, NodeID(from), m.to, m.class, m.bytes, m.deliver)
			if handlerAt < limit {
				panic(fmt.Sprintf("netsim: delivery at %v violates lookahead bound %v (msg %v %d->%d sendT=%v depart=%v bytes=%d)",
					handlerAt, limit, m.class, from, m.to, m.sendT, m.depart, m.bytes))
			}
			n.eng.ScheduleOn(procs[m.to], handlerAt, fn)
			msgs[i] = wireMsg{} // release the delivery closure
		}
		n.outbox[from] = msgs[:0]
	}
}

func bySendT(a, b wireMsg) int { return cmp.Compare(a.sendT, b.sendT) }

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
