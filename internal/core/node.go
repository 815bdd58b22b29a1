package core

import (
	"cmp"
	"slices"
	"sort"

	"cvm/internal/memsim"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// node holds one processor's DSM state: its page table, interval
// knowledge, lock and barrier state, and counters.
type node struct {
	sys  *System
	id   int
	proc *sim.Proc
	mem  memsim.System

	// Consistency state. The page table is a lazily-materialized sharded
	// directory (see pagetable.go), so per-node memory tracks the working
	// set, not the address space. The sync-object maps are created lazily
	// on first use — a run that never touches a lock pays nothing for the
	// lock table.
	vt             VClock
	curIdx         int32                 // index of this node's next interval
	shards         []*pageShard          // sparse page directory root, sized at Start
	totalPages     int                   // address-space size in pages
	shardCount     int                   // shards materialized so far
	pool           bufPool               // page/twin buffer slabs (see pagetable.go)
	dirty          []PageID              // pages written in the open interval
	intervals      [][]*IntervalInfo     // known intervals, per node, idx-ascending
	locks          map[int]*lockState    // lazily created
	meets          map[meetKey]*nodeMeet // barriers, reductions, local barriers; lazily created
	swdir          map[PageID]*swDir     // single-writer directory (manager side), lazily created
	csp            csPool                // recycled spilled copyset bitsets
	csScratch      []int32               // copyset fan-out scratch (swServe)
	sorter         diffSorter            // diff-ordering scratch (applyFault)
	barrierSentIdx int32                 // own intervals already shipped to the barrier manager

	// In-flight remote request counts for outstanding-request sampling.
	inFlightFaults int
	inFlightLocks  int

	// Adaptive-coherence state (see adapt.go); all nil, at no cost, when
	// Config.Adapt is off. pmode holds per-page coherence modes; adaptObs
	// is the set of pages this node remote-faulted on this epoch, for the
	// classifier; pendingPush queues update-mode pushes between
	// closeInterval and the flush after the synchronization send.
	pmode       map[PageID]*pageAdapt
	adaptObs    map[PageID]struct{}
	pendingPush []pendingPush

	threads []Thread
	stats   NodeStats
}

func newNode(sys *System, id int, proc *sim.Proc) *node {
	n := &node{
		sys:  sys,
		id:   id,
		proc: proc,
	}
	n.mem.Init(sys.cfg.Mem)
	proc.SetHookHandler(n)
	return n
}

// OnSwitch implements sim.Hooks.
func (n *node) OnSwitch(from, to *sim.Task) {
	n.stats.ThreadSwitches++
	// Scheduler code plus the incoming thread's code phase touch the
	// I-TLB; this is the synthetic instruction-locality model (Figure 2).
	n.mem.InstrTouch(schedCodePage)
	th := n.sys.threadOf(to)
	if th != nil {
		th.touchPhaseCode()
	}
	if tr := n.sys.tracer; tr != nil {
		fromGid := int64(-1)
		if f := n.sys.threadOf(from); f != nil {
			fromGid = int64(f.gid)
		}
		toGid := int32(-1)
		if th != nil {
			toGid = int32(th.gid)
		}
		tr.Emit(trace.Event{T: n.proc.Clock(), Kind: trace.KindThreadSwitch,
			Node: int32(n.id), Thread: toGid, Arg: fromGid})
	}
}

// OnIdleEnd implements sim.Hooks. With OnSlice it is the one metrics
// hook left outside the event stream: no event describes how the
// scheduler splits a node's time.
func (n *node) OnIdleEnd(start, end sim.Time, task *sim.Task) {
	d := end - start
	reason := task.BlockReason()
	switch reason {
	case trace.ReasonFault:
		n.stats.FaultWait += d
	case trace.ReasonLock:
		n.stats.LockWait += d
	case trace.ReasonBarrier:
		n.stats.BarrierWait += d
	}
	if m := n.sys.cfg.Metrics; m != nil {
		m.Idle(n.id, start, end, reason)
	}
}

// OnSlice implements sim.Hooks.
func (n *node) OnSlice(task *sim.Task, start, end sim.Time) {
	n.stats.UserTime += end - start
	if m := n.sys.cfg.Metrics; m != nil {
		m.Slice(n.id, start, end, n.proc.QueueLen())
	}
}

// ensureIntervals creates the per-node interval table on first use; a
// run that never closes an interval (no synchronization) never pays for
// it.
func (n *node) ensureIntervals() {
	if n.intervals == nil {
		n.intervals = make([][]*IntervalInfo, n.sys.cfg.Nodes)
	}
}

// markDirty adds pg to the open interval's dirty list.
func (n *node) markDirty(p *page) {
	if !p.openDirty {
		p.openDirty = true
		n.dirty = append(n.dirty, p.id)
	}
}

// closeInterval ends the open interval if it modified any pages, emitting
// write notices and downgrading dirty pages to read-only so the next
// interval's writes fault into the dirty list again. It is called at
// release operations (lock release, barrier arrival) in thread context;
// the per-page protection changes charge the paper's mprotect cost to t.
func (n *node) closeInterval(t *Thread) {
	if len(n.dirty) == 0 {
		return
	}
	n.ensureIntervals()
	n.curIdx++
	n.vt[n.id] = n.curIdx
	info := &IntervalInfo{
		Node:  n.id,
		Idx:   n.curIdx,
		VT:    n.vt.Clone(),
		Pages: append([]PageID(nil), n.dirty...),
	}
	n.intervals[n.id] = append(n.intervals[n.id], info)

	// Create this interval's diffs eagerly (as TreadMarks does at barrier
	// arrival): every diff then carries exact per-interval attribution,
	// and a requester is only ever sent diffs for intervals it holds
	// write notices for. The VT stamped here is closed: every interval a
	// node knows of arrived on a grant or a release together with the
	// sender's vector time, and the barrier manager applies arrivals'
	// intervals only once every node has arrived (sync.go, gather). So
	// after any grant or release no node holds an interval its vt does
	// not cover. The page-length comparison and the protection downgrade
	// are charged to the closing thread.
	for _, pg := range n.dirty {
		p := n.pageAt(pg)
		p.openDirty = false
		d := &Diff{
			Page: pg,
			Node: n.id,
			Idx:  n.curIdx,
			VT:   info.VT,
			Runs: MakeDiff(pg, p.twin, p.data),
		}
		n.storeDiff(d)
		if ad := n.adaptOf(pg); ad != nil && ad.mode == ModeMWUpd && len(ad.subs) > 0 {
			n.queuePush(p, d, ad)
		}
		n.releaseTwin(p)
		if t != nil {
			t.task.Advance(n.sys.cfg.DiffCreateCost +
				n.mem.AccessRange(uint64(pg)<<n.sys.pageShift, n.sys.cfg.PageSize))
		}
		if tr := n.sys.tracer; tr != nil {
			ev := trace.Event{Kind: trace.KindDiffCreate, Node: int32(n.id),
				Thread: -1, Page: int32(pg),
				Arg: int64(d.WireBytes(n.sys.cfg.CompressDiffs)), Aux: int64(n.curIdx)}
			if t != nil {
				ev.T = t.task.Now()
				ev.Thread = int32(t.gid)
			} else {
				ev.T = n.proc.LocalNow()
			}
			tr.Emit(ev)
		}
		if p.state == PageReadWrite {
			p.state = PageReadOnly
			if t != nil {
				t.task.Advance(n.sys.cfg.MprotectCost)
			}
		}
	}
	n.dirty = n.dirty[:0]
}

func (n *node) storeDiff(d *Diff) {
	p := n.pageAt(d.Page)
	p.diffs = append(p.diffs, d)
	n.stats.DiffsCreated++
}

// newInfosSince returns this node's knowledge of every interval (its own
// and others') not covered by the given vector time, ordered by node then
// index. It is the write-notice payload of lock grants and barrier
// messages.
func (n *node) newInfosSince(vt VClock) []*IntervalInfo {
	if n.intervals == nil {
		return nil
	}
	var out []*IntervalInfo
	for nodeID := 0; nodeID < n.sys.cfg.Nodes; nodeID++ {
		infos := n.intervals[nodeID]
		// Binary search: infos is ascending by Idx.
		i := sort.Search(len(infos), func(i int) bool { return infos[i].Idx > vt[nodeID] })
		out = append(out, infos[i:]...)
	}
	return out
}

// applyInfos merges received interval knowledge: records the intervals,
// invalidates pages named by fresh write notices, and joins the sender's
// vector time. It runs at acquire-type operations (lock grant, barrier
// release) in either thread or engine context.
func (n *node) applyInfos(infos []*IntervalInfo, senderVT VClock) {
	for _, info := range infos {
		if info.Node == n.id || info.Idx <= n.vt[info.Node] {
			continue // own interval or already known
		}
		n.ensureIntervals()
		n.intervals[info.Node] = append(n.intervals[info.Node], info)
		n.vt[info.Node] = info.Idx
		for _, pg := range info.Pages {
			p := n.pageAt(pg)
			w := p.writer(info.Node)
			if info.Idx > w.wanted {
				w.wanted = info.Idx
			}
			if w.applied < w.wanted {
				p.state = PageInvalid
			}
		}
	}
	if senderVT != nil {
		n.vt.Merge(senderVT)
	}
}

// serveDiffRequest handles a remote data request (engine context): it
// replies with the stored diffs for intervals in (from, to]. All such
// diffs exist — they were created when the intervals closed — so the
// reply never reaches past the requester's write-notice horizon.
// Intervals in the range that did not dirty the page simply have no diff.
func (n *node) serveDiffRequest(pg PageID, from, to int32, reply func(ds []*Diff, bytes int, serviceTime sim.Time)) {
	stored := n.pageAt(pg).diffs
	i := sort.Search(len(stored), func(i int) bool { return stored[i].Idx > from })
	j := sort.Search(len(stored), func(j int) bool { return stored[j].Idx > to })
	ds := stored[i:j]
	compress := n.sys.cfg.CompressDiffs
	bytes := 16
	for _, d := range ds {
		bytes += d.WireBytes(compress)
	}
	reply(ds, bytes, n.sys.cfg.DiffServeCost)
}

// diffSorter is the scratch sortDiffs works in. Each node owns one and
// reuses it for every fault, so ordering a fault's diffs allocates nothing
// once the slices have grown to the largest fault seen.
type diffSorter struct {
	src []*Diff // the diffs sorted by (Node, Idx); an entry is nil once emitted

	// The non-empty queues, ascending by node. node and own repeat two
	// facts about each queue's head h, h.Node and h.VT[h.Node] (which is
	// h.Idx: closeInterval sets both), as dense int32 slices for the
	// prefilter loop in findBlocker.
	qs        []diffQueue
	node, own []int32
}

// diffQueue is one creator node's not-yet-emitted diffs, src[pos:end],
// ascending by interval index, plus the blocked-by memo of its head:
// src[by] was found Before it, which holds until src[by] is emitted.
type diffQueue struct {
	pos, end int32
	by       int32 // < 0: no blocker known
}

// sortDiffs orders diffs for application into a linear extension of the
// happens-before partial order, so a causally-later diff is always applied
// after every diff it supersedes. Happens-before is a partial order, NOT a
// strict weak ordering, so a comparison sort cannot be used. Instead the
// diffs are merged per creator node (each node's diffs are already
// causally ordered by interval index): repeatedly emit the head of the
// lowest-numbered queue that no other queue's head happens-before. Before
// is a strict partial order, so some head always qualifies. Concurrent
// diffs modify disjoint bytes in race-free programs, so their mutual order
// is immaterial to the data — but it fixes every virtual time downstream,
// so the tests pin the emitted order against sortDiffsReference.
//
// Two shortcuts keep that order and drop its cost (DESIGN.md, "Diff
// application order"). A head found blocked is skipped until its blocker
// is emitted. And a.VT.Before(b.VT) needs b.VT[a.Node] >= a.VT[a.Node],
// one component of the comparison, so the O(nodes) scan runs only when
// that holds, which between concurrent writers is almost never. The test
// alone would be exact only while vector times stay closed (see
// closeInterval); the sorter does not rely on that.
func (s *diffSorter) sortDiffs(ds []*Diff) {
	if len(ds) < 2 {
		return
	}
	slices.SortFunc(ds, func(a, b *Diff) int {
		if a.Node != b.Node {
			return cmp.Compare(a.Node, b.Node)
		}
		return cmp.Compare(a.Idx, b.Idx)
	})
	s.src = append(s.src[:0], ds...)
	s.qs, s.node, s.own = s.qs[:0], s.node[:0], s.own[:0]
	for i, d := range s.src {
		if i == 0 || d.Node != s.src[i-1].Node {
			s.qs = append(s.qs, diffQueue{pos: int32(i), by: -1})
			s.node = append(s.node, int32(d.Node))
			s.own = append(s.own, d.VT[d.Node])
		}
		s.qs[len(s.qs)-1].end = int32(i + 1)
	}
	lo := 0 // the non-empty queues are qs[lo:], node[lo:], own[lo:]
	for out := range ds {
		a := lo
		for ; ; a++ {
			if by := s.qs[a].by; by >= 0 && s.src[by] != nil {
				continue // still blocked by the same diff
			}
			if !s.findBlocker(lo, a) {
				break
			}
		}
		q := &s.qs[a]
		ds[out], s.src[q.pos] = s.src[q.pos], nil
		q.pos++
		if q.pos < q.end {
			q.by, s.own[a] = -1, s.src[q.pos].VT[s.node[a]]
			continue
		}
		// Queue a is empty: close the gap from the front, which costs no
		// more than the walk over the blocked queues below a just did.
		copy(s.qs[lo+1:a+1], s.qs[lo:a])
		copy(s.node[lo+1:a+1], s.node[lo:a])
		copy(s.own[lo+1:a+1], s.own[lo:a])
		lo++
	}
}

// findBlocker reports whether the head of another non-empty queue (those
// from lo on) happens-before the head of queue a, remembering the first
// one found.
func (s *diffSorter) findBlocker(lo, a int) bool {
	h := s.src[s.qs[a].pos].VT
	for b := reached(h, s.node, s.own, lo); b < len(s.node); b = reached(h, s.node, s.own, b+1) {
		if pos := s.qs[b].pos; b != a && s.src[pos].VT.Before(h) {
			s.qs[a].by = pos
			return true
		}
	}
	return false
}

// reached returns the first i >= from with vt[node[i]] >= own[i], or
// len(node) if there is none. It is the inner loop of the many-writer
// fault, kept apart from Before so that it stays in registers.
func reached(vt VClock, node, own []int32, from int) int {
	own = own[:len(node)]
	for i := from; i < len(node); i++ {
		if vt[node[i]] >= own[i] {
			return i
		}
	}
	return len(node)
}

// schedCodePage is the synthetic I-TLB page of the thread scheduler.
const schedCodePage = 1 << 40
