package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// This file keeps the window commit as it was before the typed sort —
// sort.SliceStable over each outbox and a scheduling closure per message,
// handed into the fault model — verbatim, as the reference the
// differential test below holds CommitWindow to.

func (n *Network) commitWindowReference(limit sim.Time) {
	for from := range n.outbox {
		msgs := n.outbox[from]
		if len(msgs) == 0 {
			continue
		}
		sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].sendT < msgs[j].sendT })
		for i := range msgs {
			m := &msgs[i]
			to := m.to
			sched := func(at sim.Time, fn func()) {
				if at < limit {
					panic(fmt.Sprintf("netsim: delivery at %v violates lookahead bound %v (msg %v %d->%d sendT=%v depart=%v bytes=%d)",
						at, limit, m.class, from, m.to, m.sendT, m.depart, m.bytes))
				}
				n.eng.ScheduleOn(n.eng.Procs()[int(to)], at, fn)
			}
			if n.faults != nil {
				n.faultedSendReference(m.depart, m.egressWait, NodeID(from), m.to, m.class, m.bytes, m.deliver, sched)
			} else {
				sched(n.arrival(m.depart, m.egressWait, NodeID(from), m.to, m.class, m.bytes, 0), m.deliver)
			}
			msgs[i] = wireMsg{} // release the delivery closure
		}
		n.outbox[from] = msgs[:0]
	}
}

// faultedSendReference is faultedSend with a scheduling closure: one
// delivery, RTO·(2^k−1) late after k dropped attempts, or the give-up
// panic after MaxRetries+1, and a duplicate's replica discarded.
func (n *Network) faultedSendReference(depart, wait sim.Time, from, to NodeID, class Class, bytes int, deliver func(), sched func(sim.Time, func())) {
	f := n.faults
	idx := n.nextChanIdx(from, to)

	late := sim.Time(0)
	for attempt := 0; ; attempt++ {
		if p := f.Drop[class]; p == 0 || unit(faultRoll(f.Seed, from, to, idx, streamDrop+uint64(attempt)*256)) >= p {
			break
		}
		w := wait
		if attempt > 0 {
			w = -1
		}
		id := n.dropMsg(depart+late, w, from, to, class, bytes)
		late = f.RTO * (1<<(attempt+1) - 1)
		if attempt == f.MaxRetries {
			u := &Undelivered{At: depart + late, From: from, To: to, Class: class, Attempts: attempt + 1}
			sched(max(u.At, depart+n.params.Lookahead()), func() { panic(u) })
			return
		}
		n.faultCounts[from].Retransmits++
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{T: depart + late, Kind: trace.KindRetransmit,
				Node: int32(from), Thread: -1, Peer: int32(to),
				Sync: int32(class), Aux: id, Arg: int64(attempt + 1)})
		}
	}
	if late > 0 {
		wait = -1
	}

	extra := late
	if f.JitterMax > 0 {
		extra += sim.Time(unit(faultRoll(f.Seed, from, to, idx, streamJitter)) * float64(f.JitterMax))
	}
	if p := f.Reorder[class]; p > 0 && unit(faultRoll(f.Seed, from, to, idx, streamReorder)) < p {
		extra += f.ReorderDelay
	}
	sched(n.arrival(depart, wait, from, to, class, bytes, extra), deliver)

	if p := f.Dup[class]; p > 0 && unit(faultRoll(f.Seed, from, to, idx, streamDup)) < p {
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{T: depart, Kind: trace.KindMsgDup,
				Node: int32(from), Thread: -1, Peer: int32(to),
				Sync: int32(class), Arg: int64(bytes), Aux: n.msgID})
		}
		at := n.arrival(depart, -1, from, to, class, bytes, extra)
		n.faultCounts[to].DupsSuppressed++
		if n.tracer != nil {
			n.tracer.Emit(trace.Event{T: at, Kind: trace.KindDupSuppress,
				Node: int32(to), Thread: -1, Peer: int32(from),
				Sync: int32(class), Aux: n.msgID})
		}
	}
}

// eventLog is a trace.Tracer that keeps every event in emission order.
type eventLog []trace.Event

func (l *eventLog) Emit(e trace.Event) { *l = append(*l, e) }

// commitRun is one network the differential test drives: what it
// delivered (message tag and handler time, in handler order) and what it
// traced.
type commitRun struct {
	eng       *sim.Engine
	net       *Network
	events    eventLog
	delivered []string
}

func newCommitRun(nodes int, f *FaultParams) *commitRun {
	r := &commitRun{eng: sim.NewEngine()}
	r.net = New(r.eng, nodes, DefaultParams())
	for i := 0; i < nodes; i++ {
		r.eng.AddProc(0)
	}
	r.net.SetDeferred(true)
	r.net.SetFaults(f)
	r.net.SetTracer(&r.events)
	return r
}

// TestCommitWindowMatchesReference fills the outboxes of two networks
// with the same random windows of traffic — sends at a handful of
// instants so many tie, appended out of sendT order as handler sends
// are, some outboxes empty — commits one with CommitWindow and the other
// with the reference, reliable and under every fault dimension, and
// requires the same deliveries at the same times in the same order, the
// same message ids and traced events, and the same fault rolls and
// counters.
func TestCommitWindowMatchesReference(t *testing.T) {
	faulty := &FaultParams{Seed: 5, JitterMax: 40 * us, ReorderDelay: 300 * us, RTO: 100 * us}
	for c := 0; c < NumClasses; c++ {
		faulty.Drop[c], faulty.Dup[c], faulty.Reorder[c] = 0.1, 0.15, 0.1
	}
	const nodes = 6
	for _, f := range []*FaultParams{nil, faulty} {
		for seed := int64(1); seed <= 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := newCommitRun(nodes, f), newCommitRun(nodes, f)
			for window := 0; window < 8; window++ {
				w0 := sim.Time(window) * sim.Millisecond
				for from := 0; from < nodes; from++ {
					k := rng.Intn(7) - 1 // none a third of the time
					if rng.Intn(5) == 0 {
						k = 20 + rng.Intn(30) // past insertion sort, which is stable anyway
					}
					for ; k > 0; k-- {
						sendT := w0 + sim.Time(rng.Intn(4))*us
						m := wireMsg{
							sendT: sendT, depart: sendT + sim.Time(rng.Intn(50))*us,
							egressWait: sim.Time(rng.Intn(3)) * us,
							to:         NodeID((from + 1 + rng.Intn(nodes-1)) % nodes),
							class:      Class(rng.Intn(NumClasses)), bytes: rng.Intn(9000),
						}
						tag := fmt.Sprintf("w%d %d->%d #%d", window, from, m.to, len(got.net.outbox[from]))
						for _, r := range []*commitRun{got, want} {
							m.deliver = func() { r.delivered = append(r.delivered, fmt.Sprintf("%s @%v", tag, r.eng.Now())) }
							r.net.outbox[from] = append(r.net.outbox[from], m)
						}
					}
				}
				got.net.CommitWindow(w0)
				want.net.commitWindowReference(w0)
				for _, r := range []*commitRun{got, want} {
					if err := r.eng.Run(); err != nil {
						t.Fatal(err)
					}
				}
			}
			what := fmt.Sprintf("faults=%v seed %d", f != nil, seed)
			if len(got.delivered) == 0 {
				t.Fatalf("%s: nothing delivered", what)
			}
			if fmt.Sprint(got.delivered) != fmt.Sprint(want.delivered) {
				t.Fatalf("%s: deliveries\n%v\nreference\n%v", what, got.delivered, want.delivered)
			}
			if fmt.Sprint(got.events) != fmt.Sprint(want.events) {
				t.Fatalf("%s: traced events\n%v\nreference\n%v", what, got.events, want.events)
			}
			counters := func(n *Network) string {
				return fmt.Sprint(n.Stats(), n.chanIdx, n.faultCounts, n.ingressFree, n.bulkIngressFree)
			}
			if counters(got.net) != counters(want.net) {
				t.Fatalf("%s: counters %s, reference %s", what, counters(got.net), counters(want.net))
			}
		}
	}
}

// TestCommitWindowLookaheadPanics: a delivery before the window limit is
// the one failure the commit cannot absorb, and it says which message.
func TestCommitWindowLookaheadPanics(t *testing.T) {
	r := newCommitRun(2, nil)
	r.net.outbox[0] = append(r.net.outbox[0], wireMsg{to: 1, class: ClassLock, deliver: func() {}})
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg,
			"netsim: delivery at 337.000µs violates lookahead bound 1.000ms (msg Lock 0->1 sendT=0ns depart=0ns bytes=0)") {
			t.Errorf("CommitWindow panicked with %q, want the lookahead violation", msg)
		}
	}()
	r.net.CommitWindow(sim.Millisecond)
}
