package trace

import (
	"cmp"
	"math"
	"slices"
	"strings"
	"testing"

	"cvm/internal/sim"
)

func TestKindNames(t *testing.T) {
	seen := make(map[string]Kind)
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if !strings.Contains(name, ".") {
			t.Errorf("kind %d name %q is not dotted (category.event)", k, name)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := numKinds.String(); !strings.HasPrefix(got, "kind(") {
		t.Errorf("out-of-range kind prints %q", got)
	}
	if NumKinds() != int(numKinds) {
		t.Errorf("NumKinds() = %d, want %d", NumKinds(), numKinds)
	}
}

func TestRecorderUnbounded(t *testing.T) {
	r := NewRecorder(2, 2, 0)
	for i := 0; i < 100; i++ {
		r.Emit(Event{T: sim.Time(i), Kind: KindMsgSend, Node: int32(i % 2)})
	}
	if r.Len() != 100 {
		t.Fatalf("Len = %d, want 100", r.Len())
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
	if got := len(r.NodeEvents(0)); got != 50 {
		t.Fatalf("node 0 has %d events, want 50", got)
	}
}

func TestRecorderRingBound(t *testing.T) {
	r := NewRecorder(1, 1, 4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{T: sim.Time(i), Kind: KindMsgSend})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.NodeEvents(0)
	// The oldest events drop first: 6..9 survive, in emission order.
	for i, e := range evs {
		if want := sim.Time(6 + i); e.T != want {
			t.Errorf("event %d has T=%v, want %v", i, e.T, want)
		}
	}
}

func TestRecorderSeqAssignment(t *testing.T) {
	r := NewRecorder(2, 1, 0)
	r.Emit(Event{T: 5, Node: 1})
	r.Emit(Event{T: 3, Node: 0})
	evs := r.Events()
	if evs[0].Seq == 0 || evs[1].Seq == 0 {
		t.Fatal("Emit must assign nonzero Seq")
	}
	if evs[0].Seq == evs[1].Seq {
		t.Fatal("Seq must be unique")
	}
}

func TestEventsMergedOrder(t *testing.T) {
	r := NewRecorder(3, 1, 0)
	// Interleave nodes with non-monotone timestamps per emission order
	// (deliveries are emitted at send time with a future T).
	r.Emit(Event{T: 100, Node: 0, Kind: KindMsgSend, Aux: 1})
	r.Emit(Event{T: 500, Node: 1, Kind: KindMsgDeliver, Aux: 1})
	r.Emit(Event{T: 200, Node: 2, Kind: KindFaultStart})
	r.Emit(Event{T: 100, Node: 1, Kind: KindThreadBlock})
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		a, b := evs[i-1], evs[i]
		if a.T > b.T || (a.T == b.T && a.Seq >= b.Seq) {
			t.Fatalf("events %d,%d out of (T,Seq) order: (%v,%d) then (%v,%d)",
				i-1, i, a.T, a.Seq, b.T, b.Seq)
		}
	}
	// The two T=100 events must tie-break by emission order: node 0 first.
	if evs[0].Node != 0 || evs[1].Node != 1 {
		t.Fatalf("tie-break order wrong: nodes %d,%d", evs[0].Node, evs[1].Node)
	}
}

func TestEventStructIsPointerFree(t *testing.T) {
	// Events travel by value (Emit, Events, the exporters' open spans);
	// a pointer field would bring allocation and GC scanning to the hot
	// path, and the rings could not pack it.
	var e Event
	_ = e
	// Compile-time-ish check: Event must be comparable (no slices/maps).
	events := map[Event]bool{e: true}
	if !events[e] {
		t.Fatal("Event must be comparable")
	}
}

// TestPackedRoundTrip: the packed rings give back every event exactly as
// it was emitted, through NodeEvents and Events, unbounded and past a
// bound: T below zero, stepping back and at the int64 limits, Dur, Aux
// and Arg at the int64 limits, handler context, Page, Sync and Peer at
// the int32 limits, and Seq jumping past 2^32 between two events of one
// ring.
func TestPackedRoundTrip(t *testing.T) {
	i64 := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64}
	i32 := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32}
	for _, limit := range []int{0, chunkEvents + 5} {
		r := NewRecorder(2, 1, limit)
		var emitted [2][]Event
		for i := 0; i < 3*chunkEvents; i++ {
			if i == chunkEvents+1 {
				r.seq += 1<<32 + 7
			}
			e := Event{
				T:      sim.Time(-5000 + 1000*(i%7) - i),
				Dur:    sim.Time(i64[i%5]),
				Aux:    i64[i/5%5],
				Arg:    i64[i/25%5],
				Kind:   Kind(i % (int(numKinds) + 1)),
				Node:   int32(i % 2),
				Thread: i32[i/3%5],
				Page:   i32[(i+1)%5],
				Sync:   i32[(i+2)%5],
				Peer:   i32[(i+3)%5],
			}
			switch i % 11 {
			case 0:
				e.Thread = -1
			case 3:
				e.T = math.MinInt64
			case 6:
				e.T = math.MaxInt64
			}
			r.Emit(e)
			e.Seq = r.seq
			emitted[e.Node] = append(emitted[e.Node], e)
		}
		var all []Event
		for n, want := range emitted {
			if limit > 0 {
				want = want[len(want)-limit:]
			}
			if got := r.NodeEvents(n); !slices.Equal(got, want) {
				t.Fatalf("limit %d: node %d's events do not come back as emitted", limit, n)
			}
			all = append(all, want...)
		}
		slices.SortFunc(all, func(a, b Event) int { return cmp.Or(cmp.Compare(a.T, b.T), cmp.Compare(a.Seq, b.Seq)) })
		if got := r.Events(); !slices.Equal(got, all) {
			t.Fatalf("limit %d: Events() does not give back the emitted events in (T, Seq) order", limit)
		}
	}
}

// retainedBytes is the memory r's rings hold: every chunk's block, what
// is not yet filled included.
func retainedBytes(r *Recorder) int {
	n := 0
	for i := range r.rings {
		for _, c := range r.rings[i].chunks {
			n += cap(c.b)
		}
	}
	return n
}
