package sim

// event is a deferred function execution at a virtual-time instant.
// Events model message deliveries and other asynchronous occurrences;
// their handlers run in engine context and must never block.
type event struct {
	at  Time
	seq uint64 // tie-breaker: creation order
	fn  func()
}

// before is the queue's total order: earlier instant first, creation
// order among equals. Total, so a heap of any shape pops one sequence.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of event values ordered by (at, seq):
// half the levels of a binary heap, the four children of a node on one
// or two cache lines, and no allocation per event — the slice's capacity
// is reused for the whole run.
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) peekTime() Time {
	if len(q) == 0 {
		return MaxTime
	}
	return q[0].at
}

// push inserts ev, moving later ancestors down into the hole it climbs
// through.
func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	*q = h
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the queue does not keep a finished handler's closure alive.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	*q = h

	// Sift last down from the root through the hole top left behind.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if h[c].before(&h[least]) {
				least = c
			}
		}
		if !h[least].before(&last) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		h[i] = last
	}
	return top
}
