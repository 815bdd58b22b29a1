package netsim

import (
	"fmt"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// NumClasses is the number of message classes, exported for sizing the
// per-class fault probability arrays.
const NumClasses = int(numClasses)

// FaultParams configures the deterministic network fault model. The
// struct is pure read-only configuration — a single value may be shared
// across concurrently running systems (the harness does); all mutable
// fault state lives in the Network.
//
// Every fault is timing: the network still hands each message to its
// handler exactly once. A dropped attempt is retransmitted and the copy
// that gets through arrives late; a duplicate pays for its wire and is
// discarded at the receiver. Every fault decision is a pure function of
// (Seed, from, to, msgIndex) where msgIndex counts messages per directed
// channel, so a run's fault schedule is byte-reproducible and
// independent of wall-clock, map iteration, or goroutine scheduling.
type FaultParams struct {
	// Seed keys the fault PRNG. Two runs with equal Seed (and equal
	// workload) suffer identical fault schedules.
	Seed uint64

	// Drop, Dup, and Reorder are per-class probabilities in [0, 1]:
	// the chance that an attempt is lost in flight, that a message is
	// sent twice, or that it is delayed by ReorderDelay so later traffic
	// overtakes it.
	Drop    [NumClasses]float64
	Dup     [NumClasses]float64
	Reorder [NumClasses]float64

	// JitterMax adds uniform extra delivery latency in [0, JitterMax) to
	// every message (0 disables jitter).
	JitterMax sim.Time

	// ReorderDelay is the extra delivery latency applied to reordered
	// messages. Must be > 0 if any Reorder probability is.
	ReorderDelay sim.Time

	// RTO is the sender's initial retransmission timeout (DefaultRTO
	// when zero). Backoff doubles per attempt, so a message dropped k
	// times arrives RTO·(2^k−1) late.
	RTO sim.Time

	// MaxRetries bounds the retransmissions of one message
	// (DefaultMaxRetries when zero). A message whose every attempt
	// drops ends the run with an *Undelivered panic when the sender
	// gives up.
	MaxRetries int
}

// DefaultRTO is the default retransmission timeout: comfortably above
// the worst-case uncontended round trip (≈1 ms for a page-sized reply).
const DefaultRTO = 5 * sim.Millisecond

// DefaultMaxRetries bounds retransmission attempts per message. With
// doubling backoff the sender gives up after 2^13−1 RTOs ≈ 41 s of
// virtual time — unambiguous network death, reported loudly.
const DefaultMaxRetries = 12

// Active reports whether any fault dimension is enabled.
func (f *FaultParams) Active() bool {
	if f == nil {
		return false
	}
	for c := 0; c < NumClasses; c++ {
		if f.Drop[c] > 0 || f.Dup[c] > 0 || f.Reorder[c] > 0 {
			return true
		}
	}
	return f.JitterMax > 0
}

// Validate checks the parameters are well-formed.
func (f *FaultParams) Validate() error {
	reorder := false
	for c := 0; c < NumClasses; c++ {
		for _, p := range [3]struct {
			name string
			v    float64
		}{{"drop", f.Drop[c]}, {"dup", f.Dup[c]}, {"reorder", f.Reorder[c]}} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("netsim: %s probability for %v is %v, want [0, 1]", p.name, Class(c), p.v)
			}
		}
		reorder = reorder || f.Reorder[c] > 0
	}
	if f.JitterMax < 0 {
		return fmt.Errorf("netsim: negative JitterMax %v", f.JitterMax)
	}
	if f.ReorderDelay < 0 {
		return fmt.Errorf("netsim: negative ReorderDelay %v", f.ReorderDelay)
	}
	if reorder && f.ReorderDelay == 0 {
		return fmt.Errorf("netsim: Reorder probability set but ReorderDelay is zero")
	}
	if f.RTO < 0 {
		return fmt.Errorf("netsim: negative RTO %v", f.RTO)
	}
	if f.MaxRetries < 0 {
		return fmt.Errorf("netsim: negative MaxRetries %d", f.MaxRetries)
	}
	return nil
}

// Fault decision streams: each (message, decision) pair draws from an
// independent stream of the keyed PRNG so enabling one fault dimension
// never shifts another dimension's rolls.
const (
	streamDrop uint64 = iota + 1
	streamDup
	streamReorder
	streamJitter
)

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mixer (Steele et al., "Fast Splittable Pseudorandom Number
// Generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultRoll derives the decision word for one (message, stream) pair.
func faultRoll(seed uint64, from, to NodeID, idx, stream uint64) uint64 {
	h := splitmix64(seed)
	h = splitmix64(h ^ uint64(from))
	h = splitmix64(h ^ uint64(to))
	h = splitmix64(h ^ idx)
	return splitmix64(h ^ stream)
}

// unit maps a decision word to a uniform float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) * (1.0 / (1 << 53)) }

// SetFaults installs the fault model (nil restores the reliable
// network). Must be called before traffic flows. The network keeps its
// own copy of f, with RTO and MaxRetries defaulted.
func (n *Network) SetFaults(f *FaultParams) {
	n.faults = nil
	if f == nil {
		return
	}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	if !f.Active() {
		return
	}
	own := *f
	if own.RTO == 0 {
		own.RTO = DefaultRTO
	}
	if own.MaxRetries == 0 {
		own.MaxRetries = DefaultMaxRetries
	}
	n.faults = &own
	if n.chanIdx == nil {
		nodes := len(n.egressFree)
		n.chanIdx = make([]uint64, nodes*nodes)
		n.faultCounts = make([]FaultCounts, nodes)
	}
}

// FaultCounts is one node's share of the fault model's work.
type FaultCounts struct {
	Retransmits    int64 // attempts this node re-sent after a drop
	DupsSuppressed int64 // replicas this node received and discarded
}

// FaultCounts reports node's fault counters since the last ResetStats
// (zero on a reliable network).
func (n *Network) FaultCounts(node NodeID) FaultCounts {
	if n.faultCounts == nil {
		return FaultCounts{}
	}
	return n.faultCounts[node]
}

// nextChanIdx returns and advances the per-channel message index that
// keys fault rolls for the next message from→to.
func (n *Network) nextChanIdx(from, to NodeID) uint64 {
	i := int(from)*len(n.egressFree) + int(to)
	idx := n.chanIdx[i]
	n.chanIdx[i]++
	return idx
}

// Undelivered is the panic value of the engine event that ends a run
// when every attempt at a message dropped: the sender gave up at At
// after Attempts transmissions.
type Undelivered struct {
	At       sim.Time
	From, To NodeID
	Class    Class
	Attempts int
}

// faultedSend routes one departing message, which queued wait at the
// egress, through the fault model and returns when its handler runs and
// what runs then. Each dropped attempt is accounted and retransmitted
// when the sender's timer fires, with doubling backoff, so the copy that
// gets through after k drops arrives RTO·(2^k−1) late; jitter and
// reorder add to that. A duplicate's replica pays its wire and ingress
// and is discarded at the receiver. If every attempt drops, what runs is
// an *Undelivered panic, at the instant the sender gives up.
func (n *Network) faultedSend(depart, wait sim.Time, from, to NodeID, class Class, bytes int, deliver func()) (sim.Time, func()) {
	f := n.faults
	idx := n.nextChanIdx(from, to)

	late := sim.Time(0) // the backoff before the current attempt
	for k := 0; f.Drop[class] > 0; k++ {
		// Attempt k ≥ 1 rolls on a stream of its own, clear of the others.
		if unit(faultRoll(f.Seed, from, to, idx, streamDrop+uint64(k)<<8)) >= f.Drop[class] {
			break
		}
		id := n.dropMsg(depart+late, wait, from, to, class, bytes)
		wait = -1 // only the first attempt queued at the egress
		late = f.RTO<<(k+1) - f.RTO
		if k == f.MaxRetries {
			u := &Undelivered{At: depart + late, From: from, To: to, Class: class, Attempts: k + 1}
			// Never before a message could reach anyone: the windowed
			// engine's commit holds every event to its lookahead.
			return max(u.At, depart+n.params.Lookahead()), func() { panic(u) }
		}
		n.faultCounts[from].Retransmits++
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{T: depart + late, Kind: trace.KindRetransmit,
				Node: int32(from), Thread: -1, Peer: int32(to),
				Sync: int32(class), Aux: id, Arg: int64(k + 1)})
		}
	}

	extra := late
	if f.JitterMax > 0 {
		extra += sim.Time(unit(faultRoll(f.Seed, from, to, idx, streamJitter)) * float64(f.JitterMax))
	}
	if p := f.Reorder[class]; p > 0 && unit(faultRoll(f.Seed, from, to, idx, streamReorder)) < p {
		extra += f.ReorderDelay
	}
	at := n.arrival(depart, wait, from, to, class, bytes, extra)

	if p := f.Dup[class]; p > 0 && unit(faultRoll(f.Seed, from, to, idx, streamDup)) < p {
		if n.tracer != nil {
			// Aux links the duplication to the original message's id
			// (assigned by the arrival call just above).
			n.tracer.Emit(trace.Event{T: depart, Kind: trace.KindMsgDup,
				Node: int32(from), Thread: -1, Peer: int32(to),
				Sync: int32(class), Arg: int64(bytes), Aux: n.msgID})
		}
		// The replica is a second physical message: it pays its own wire,
		// ingress, and accounting under its own id, and the receiver
		// discards it.
		replica := n.arrival(depart, -1, from, to, class, bytes, extra)
		n.faultCounts[to].DupsSuppressed++
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{T: replica, Kind: trace.KindDupSuppress,
				Node: int32(to), Thread: -1, Peer: int32(from),
				Sync: int32(class), Aux: n.msgID})
		}
	}
	return at, deliver
}

// dropMsg accounts an attempt that left the sender's egress but never
// arrived and returns its trace id (0 untraced). It still counts in the
// traffic stats (it consumed the wire) but emits no send/deliver pair —
// only a drop event.
func (n *Network) dropMsg(depart, wait sim.Time, from, to NodeID, class Class, bytes int) int64 {
	n.stats.Msgs[class]++
	n.stats.Bytes[class] += int64(bytes)
	if n.tracer == nil {
		return 0
	}
	n.msgID++
	n.tracer.Emit(trace.Event{T: depart, Dur: wait, Kind: trace.KindMsgDrop,
		Node: int32(from), Thread: -1, Peer: int32(to),
		Sync: int32(class), Arg: int64(bytes), Aux: n.msgID})
	return n.msgID
}
