package sim

// readyProc is one slot of the runnable-proc heap. clock is a copy of
// p.clock taken when the slot was last pushed or updated: a proc's clock
// moves only while it executes a slice (or while it is idle and out of
// the heap), so every slot but the executing proc's is exact, and the
// heap stays valid through a slice — a proc that another makes runnable
// mid-slice is pushed against consistent keys.
type readyProc struct {
	clock Time
	p     *Proc
}

// readyHeap is the sequential loop's dispatch order: an indexed binary
// min-heap of the runnable procs keyed (clock, id) — a total order, ties
// by processor index, so the root is the proc a scan over all procs
// would pick. Each member records its slot in Proc.hpos (-1 outside).
type readyHeap []readyProc

func (a readyProc) before(b readyProc) bool {
	return a.clock < b.clock || a.clock == b.clock && a.p.id < b.p.id
}

// top returns the runnable proc with the lowest (clock, id), nil if none.
func (h readyHeap) top() *Proc {
	if len(h) == 0 {
		return nil
	}
	return h[0].p
}

// second returns the runner-up slot — the lowest (clock, id) among the
// runnable procs other than the root, which bounds the root's slice —
// and false if the root runs alone. The runner-up of a heap is one of
// the root's children.
func (h readyHeap) second() (readyProc, bool) {
	switch {
	case len(h) < 2:
		return readyProc{}, false
	case len(h) > 2 && h[2].before(h[1]):
		return h[2], true
	}
	return h[1], true
}

// reset empties the heap and refills it with the runnable procs.
func (h *readyHeap) reset(procs []*Proc) {
	*h = (*h)[:0]
	for _, p := range procs {
		p.hpos = -1
		if p.runnable() {
			h.push(p)
		}
	}
}

// push adds p, which must not be a member.
func (h *readyHeap) push(p *Proc) {
	*h = append(*h, readyProc{})
	h.up(len(*h)-1, readyProc{p.clock, p})
}

// update re-reads p's clock after its slice and restores the order.
func (h readyHeap) update(p *Proc) { h.fix(p.hpos, readyProc{p.clock, p}) }

// remove deletes p, refilling its slot with the last member.
func (h *readyHeap) remove(p *Proc) {
	i := p.hpos
	p.hpos = -1
	n := len(*h) - 1
	last := (*h)[n]
	*h = (*h)[:n]
	if i < n {
		h.fix(i, last)
	}
}

// fix places s, whose key may sort either way from the hole i's old
// occupant, at the slot the order gives it.
func (h readyHeap) fix(i int, s readyProc) {
	if i > 0 && s.before(h[(i-1)/2]) {
		h.up(i, s)
	} else {
		h.down(i, s)
	}
}

// up places s at the hole i or above it, moving later ancestors down.
func (h readyHeap) up(i int, s readyProc) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].p.hpos = i
		i = parent
	}
	h[i] = s
	s.p.hpos = i
}

// down places s at the hole i or below it, moving earlier children up.
func (h readyHeap) down(i int, s readyProc) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(s) {
			break
		}
		h[i] = h[c]
		h[i].p.hpos = i
		i = c
	}
	h[i] = s
	s.p.hpos = i
}
