package core

import (
	"fmt"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// The reliable transport makes the protocol survive a lossy network.
// CVM's real transport was UDP; under the fault model (Config.Faults)
// messages can be dropped, duplicated, or arbitrarily delayed, so every
// cross-node protocol message is wrapped in a sequence-numbered,
// acknowledged, retransmitted envelope:
//
//   - each directed channel (from, to) numbers its messages 1, 2, ...;
//   - the receiver acks every delivery (acks are not themselves acked —
//     a lost ack is recovered by the sender's retransmission, which the
//     receiver dedupes and re-acks);
//   - the sender keeps unacked messages pending and retransmits on an
//     exponential-backoff timer (rto, 2·rto, 4·rto, ...);
//   - the receiver tracks a contiguous delivery watermark plus a sparse
//     seen-set and suppresses replayed deliveries, so handlers observe
//     each message exactly once;
//   - a message still unacked after MaxRetries attempts fails the run
//     loudly (ErrTransport from System.Run) instead of hanging.
//
// Exactly-once delivery is sufficient for protocol correctness — no
// per-channel FIFO is needed: the lock token chain, barrier epochs, and
// diff replies are each causally chained, so cross-message reordering
// cannot violate their state machines (the invariant checker in
// internal/check proves this under the chaos suite).
//
// When Config.Faults is nil the transport does not exist and every send
// goes straight to netsim — fault-free runs are byte-identical to
// builds without this layer.

// DefaultRTO is the default retransmission timeout: comfortably above
// the worst-case uncontended round trip (≈1 ms for a page-sized reply)
// so fault-free-latency traffic never spuriously retransmits.
const DefaultRTO = 5 * sim.Millisecond

// DefaultMaxRetries bounds retransmission attempts per message. With
// doubling backoff the final attempt waits 2^12·RTO ≈ 20 s of virtual
// time — unambiguous network death, reported loudly.
const DefaultMaxRetries = 12

// ackBytes is the wire size of a transport acknowledgement.
const ackBytes = 8

// ErrTransport is wrapped by the error System.Run returns when a
// message exhausts its retry budget.
var ErrTransport = fmt.Errorf("core: transport failure")

// transportFailure carries the failing message's coordinates from the
// engine event that detected it (via panic) to System.Run's recover.
// backend and peer attribute the failure to a concrete interconnect and
// address, so multi-process failures are diagnosable from the error text
// alone.
type transportFailure struct {
	at       sim.Time
	from, to NodeID
	class    MsgClass
	seq      uint64
	attempts int
	backend  string
	peer     string
}

func (tf *transportFailure) error() error {
	return fmt.Errorf("%w: %v message %d from node %d to node %d (%s via %s) undelivered after %d attempts (T=%v)",
		ErrTransport, tf.class, tf.seq, tf.from, tf.to, tf.peer, tf.backend, tf.attempts, tf.at)
}

// pendingMsg is one unacknowledged message at its sender.
type pendingMsg struct {
	from, to NodeID
	class    MsgClass
	bytes    int
	seq      uint64
	attempt  int
	deliver  func()
}

// tchan is the transport state of one directed channel: the sender-side
// pending window at `from` and the receiver-side dedupe state at `to`
// (one struct holds both — the simulator sees all nodes).
type tchan struct {
	nextSeq uint64
	pending map[uint64]*pendingMsg

	watermark uint64          // every seq ≤ watermark has been delivered
	seen      map[uint64]bool // delivered seqs > watermark
}

// reliable implements the retransmitting envelope over the interconnect. It exists
// only when Config.Faults enables network faults.
type reliable struct {
	sys        *System
	nodes      int
	rto        sim.Time
	maxRetries int
	chans      []*tchan
}

func newTransport(s *System, rto sim.Time, maxRetries int) *reliable {
	if rto <= 0 {
		rto = DefaultRTO
	}
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	tr := &reliable{
		sys:        s,
		nodes:      s.cfg.Nodes,
		rto:        rto,
		maxRetries: maxRetries,
		chans:      make([]*tchan, s.cfg.Nodes*s.cfg.Nodes),
	}
	// Channels are created eagerly so the windowed engine never
	// allocates one from two procs concurrently; each tchan's fields
	// are then owned by exactly one proc (sender side by `from`,
	// dedupe side by `to`), with the inter-window barrier ordering the
	// cross-side seq handoff.
	for i := range tr.chans {
		tr.chans[i] = &tchan{pending: make(map[uint64]*pendingMsg), seen: make(map[uint64]bool)}
	}
	return tr
}

func (tr *reliable) chanFor(from, to NodeID) *tchan {
	return tr.chans[int(from)*tr.nodes+int(to)]
}

// send transmits one protocol message reliably. task is non-nil for
// task-context sends (the first transmission charges the task's send
// overhead and lowers its causality horizon, exactly like the raw
// netsim path); retransmissions always run from engine context.
func (tr *reliable) send(task *sim.Task, from, to NodeID, class MsgClass, bytes int, deliver func()) {
	ch := tr.chanFor(from, to)
	ch.nextSeq++
	pm := &pendingMsg{from: from, to: to, class: class, bytes: bytes, seq: ch.nextSeq, deliver: deliver}
	ch.pending[pm.seq] = pm
	if task != nil {
		tr.sys.fab.SendFromTask(task, from, to, class, bytes, tr.recvFunc(pm))
		task.Schedule(task.Now()+tr.rto, func() { tr.checkAck(pm) })
		return
	}
	tr.sys.fab.SendFromHandler(from, to, class, bytes, tr.recvFunc(pm))
	fp := tr.sys.nodes[from].proc
	tr.sys.eng.ScheduleOn(fp, fp.LocalNow()+tr.rto, func() { tr.checkAck(pm) })
}

// recvFunc wraps a message's delivery for the receiver: ack, dedupe,
// then deliver. Runs in engine context at the receiving node.
func (tr *reliable) recvFunc(pm *pendingMsg) func() {
	return func() {
		sys := tr.sys
		ch := tr.chanFor(pm.from, pm.to)
		// Ack unconditionally — a replay means the sender has not seen an
		// ack yet (the previous one was dropped or is still in flight).
		// Acks carry the data message's class for Table 2 accounting and
		// are idempotent at the sender, so they need no envelope of
		// their own.
		seq := pm.seq
		sys.fab.SendFromHandler(pm.to, pm.from, pm.class, ackBytes, func() {
			delete(ch.pending, seq)
		})
		if seq <= ch.watermark || ch.seen[seq] {
			// Replayed delivery: suppress. Handlers stay idempotent by
			// never running twice.
			rcv := sys.nodes[pm.to]
			rcv.stats.DupsSuppressed++
			if t := sys.tracer; t != nil {
				t.Emit(trace.Event{T: sys.nodes[pm.to].proc.LocalNow(), Kind: trace.KindDupSuppress,
					Node: int32(pm.to), Thread: -1, Peer: int32(pm.from),
					Sync: int32(pm.class), Aux: int64(seq)})
			}
			return
		}
		if seq == ch.watermark+1 {
			ch.watermark++
			for ch.seen[ch.watermark+1] {
				delete(ch.seen, ch.watermark+1)
				ch.watermark++
			}
		} else {
			ch.seen[seq] = true
		}
		pm.deliver()
	}
}

// checkAck fires rto·2^attempt after a (re)transmission: if the message
// is still pending, retransmit with doubled backoff or fail the run.
// Runs in engine context.
func (tr *reliable) checkAck(pm *pendingMsg) {
	sys := tr.sys
	ch := tr.chanFor(pm.from, pm.to)
	if ch.pending[pm.seq] != pm {
		return // acked
	}
	pm.attempt++
	if pm.attempt > tr.maxRetries {
		// Fail loudly: unwound through eng.Run and recovered by
		// System.Run, which shuts the engine down and reports the
		// message's coordinates.
		panic(&transportFailure{at: sys.nodes[pm.from].proc.LocalNow(), from: pm.from, to: pm.to,
			class: pm.class, seq: pm.seq, attempts: pm.attempt,
			backend: sys.fab.Name(), peer: sys.fab.PeerAddr(pm.to)})
	}
	sys.nodes[pm.from].stats.Retransmits++
	if t := sys.tracer; t != nil {
		t.Emit(trace.Event{T: sys.nodes[pm.from].proc.LocalNow(), Kind: trace.KindRetransmit,
			Node: int32(pm.from), Thread: -1, Peer: int32(pm.to),
			Sync: int32(pm.class), Aux: int64(pm.seq), Arg: int64(pm.attempt)})
	}
	sys.fab.SendFromHandler(pm.from, pm.to, pm.class, pm.bytes, tr.recvFunc(pm))
	fp := sys.nodes[pm.from].proc
	sys.eng.ScheduleOn(fp, fp.LocalNow()+tr.rto<<uint(pm.attempt), func() { tr.checkAck(pm) })
}

// send routes a protocol send through the reliable transport when faults
// are enabled, or straight to the interconnect when not. t is the sending
// task, nil for a send from engine context (a message handler). Every
// cross-node send in the protocol goes through it.
func (s *System) send(t *sim.Task, from, to NodeID, class MsgClass, bytes int, deliver func()) {
	switch {
	case s.transport != nil:
		s.transport.send(t, from, to, class, bytes, deliver)
	case t != nil:
		s.fab.SendFromTask(t, from, to, class, bytes, deliver)
	default:
		s.fab.SendFromHandler(from, to, class, bytes, deliver)
	}
}
