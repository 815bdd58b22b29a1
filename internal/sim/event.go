package sim

import "slices"

// event is a deferred function execution at a virtual-time instant.
// Events model message deliveries and other asynchronous occurrences;
// their handlers run in engine context and must never block.
type event struct {
	at  Time
	seq uint64 // tie-breaker: creation order
	fn  func()
}

// eventQueue pops events in (at, seq) order, however many are pending.
// As in patience sorting, it keeps them in sorted runs: a pushed event
// joins the open run with the latest tail not after it (its seq is the
// largest yet, so it sorts after that whole run) or opens one, and a
// binary heap of the runs' heads merges them. Deliveries are serialized
// per receiver and per sender, so a few dozen runs hold thousands of
// events: a push is a binary search over the tails and an append, and a
// pop sifts a heap of runs, not of events. Any order of instants stays
// exact; seq must grow with every push, as the engine's counters do.
type eventQueue struct {
	runs  []evRun   // every run opened so far; the empty ones are in free
	free  []int32   // empty runs, reused with their capacity
	tails []runTail // the open runs by tail instant, descending and distinct
	heads []runHead // min-heap of the open runs by their heads
	n     int
}

// evRun is one sorted run: evs[head:] are its pending events.
type evRun struct {
	evs  []event
	head int
}

type runTail struct {
	at  Time
	run int32
}

type runHead struct {
	at  Time
	seq uint64
	run int32
}

func (a *runHead) before(b *runHead) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (q *eventQueue) Len() int { return q.n }

func (q *eventQueue) peekTime() Time {
	if q.n == 0 {
		return MaxTime
	}
	return q.heads[0].at
}

// push appends ev to the run with the latest tail at or before ev.at,
// which keeps the tails in order, or opens a run for it.
func (q *eventQueue) push(ev event) {
	q.n++
	if i := q.atOrBefore(ev.at); i < len(q.tails) {
		r := &q.runs[q.tails[i].run]
		if len(r.evs) == cap(r.evs) && r.head > 0 { // slide down, not grow
			n := copy(r.evs, r.evs[r.head:])
			clear(r.evs[n:])
			r.evs, r.head = r.evs[:n], 0
		}
		r.evs = append(r.evs, ev)
		q.tails[i].at = ev.at
		return
	}
	run := int32(len(q.runs))
	if k := len(q.free); k > 0 {
		run, q.free = q.free[k-1], q.free[:k-1]
	} else {
		q.runs = append(q.runs, evRun{})
	}
	q.runs[run].evs = append(q.runs[run].evs, ev)
	q.tails = append(q.tails, runTail{ev.at, run})
	e := runHead{ev.at, ev.seq, run}
	h := append(q.heads, e)
	i := len(h) - 1
	for ; i > 0 && e.before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i] = h[(i-1)/2]
	}
	h[i], q.heads = e, h
}

// atOrBefore returns the index of the first tail at or before at.
func (q *eventQueue) atOrBefore(at Time) int {
	lo, hi := 0, len(q.tails)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); q.tails[m].at > at {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pop removes and returns the earliest event. The vacated slot is zeroed
// so the queue does not keep a finished handler's closure alive.
func (q *eventQueue) pop() event {
	h := &q.heads[0]
	r := &q.runs[h.run]
	ev := r.evs[r.head]
	r.evs[r.head] = event{}
	r.head++
	q.n--
	if r.head < len(r.evs) {
		h.at, h.seq = r.evs[r.head].at, r.evs[r.head].seq
	} else { // spent: ev was its tail, and no other tail is at ev.at
		i := q.atOrBefore(ev.at)
		q.tails = slices.Delete(q.tails, i, i+1)
		r.evs, r.head = r.evs[:0], 0
		q.free = append(q.free, h.run)
		last := len(q.heads) - 1
		q.heads[0] = q.heads[last]
		if q.heads = q.heads[:last]; last == 0 {
			return ev
		}
	}
	hs, i := q.heads, 0 // sift the root down
	e := hs[0]
	for c := 1; c < len(hs); c = 2*i + 1 {
		if c+1 < len(hs) && hs[c+1].before(&hs[c]) {
			c++
		}
		if !hs[c].before(&e) {
			break
		}
		hs[i], i = hs[c], c
	}
	hs[i] = e
	return ev
}
