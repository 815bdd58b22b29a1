package core

import (
	"math"
	"slices"

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
	legs           []*faultLeg           // finished fault legs, for reuse (fault.go)
	relIn          *episode              // the release message in flight here (sync.go)
	relStep        func()                // n.applyRelease, bound at the first release
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
	vtSum := info.VT.sum()

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
			Page:  pg,
			Node:  n.id,
			Idx:   n.curIdx,
			VT:    info.VT,
			Runs:  MakeDiff(pg, p.twin, p.data),
			vtSum: vtSum,
		}
		p.diffs = append(p.diffs, d)
		n.stats.DiffsCreated++
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

// notices, a snapshot of a node's interval lists (they only grow, so the
// headers stay valid), are a lock grant's or barrier release's write
// notices; each receiver takes what its vector time lacks.
type notices [][]*IntervalInfo

func (n *node) notices() notices { return notices(slices.Clone(n.intervals)) }

// bytesSince is the wire size of what a receiver whose vector time was vt
// is sent: every record vt does not cover.
func (ns notices) bytesSince(vt VClock) int {
	b := 0
	for x, infos := range ns {
		if len(infos) > 0 && infos[len(infos)-1].Idx > vt[x] {
			b += infosBytes(after(infos, vt[x]))
		}
	}
	return b
}

// indexed is an entry of a list kept ascending by interval index.
type indexed interface{ index() int32 }

func (in *IntervalInfo) index() int32 { return in.Idx }
func (d *Diff) index() int32          { return d.Idx }

// after returns the entries of the index-ascending list s past idx.
func after[E indexed](s []E, idx int32) []E {
	i, hi := 0, len(s)
	for i < hi {
		if m := int(uint(i+hi) >> 1); s[m].index() <= idx {
			i = m + 1
		} else {
			hi = m
		}
	}
	return s[i:]
}

// applyNotices merges a sender's notices, then its vector time.
func (n *node) applyNotices(ns notices, senderVT VClock) {
	for x, infos := range ns {
		n.applyList(x, infos)
	}
	n.vt.Merge(senderVT)
}

// applyList records the intervals n lacks of node x's list infos, and
// invalidates the pages they name (lock grant, barrier release and
// arrival). A list of all x's intervals up to its last with n's as its
// prefix — every list is one — is shared, capacity cut to length so that
// neither side's append writes into the other's: lists are not regrown.
func (n *node) applyList(x int, infos []*IntervalInfo) {
	if x == n.id || len(infos) == 0 || infos[len(infos)-1].Idx <= n.vt[x] {
		return // own, or nothing fresh
	}
	fresh := after(infos, n.vt[x])
	n.ensureIntervals()
	mine, k := n.intervals[x], len(infos)-len(fresh)
	if len(mine) == k && infos[len(infos)-1].Idx == int32(len(infos)) && (k == 0 || mine[k-1] == infos[k-1]) {
		n.intervals[x] = infos[:len(infos):len(infos)]
	} else {
		n.intervals[x] = append(mine, fresh...)
	}
	for _, info := range fresh {
		n.vt[x] = info.Idx
		for _, pg := range info.Pages {
			p := n.pageAt(pg)
			w := p.writer(x)
			if info.Idx > w.wanted {
				w.wanted = info.Idx
			}
			if w.applied < w.wanted {
				p.state = PageInvalid
			}
		}
	}
}

// serveDiffRequest handles a remote data request (engine context): it
// returns the stored diffs for intervals in (from, to] and the reply's
// wire size. All such diffs exist — they were created when the intervals
// closed — so the reply never reaches past the requester's write-notice
// horizon. Intervals in the range that did not dirty the page simply
// have no diff.
func (n *node) serveDiffRequest(pg PageID, from, to int32) ([]*Diff, int) {
	ds := after(n.pageAt(pg).diffs, from)
	ds = ds[:len(ds)-len(after(ds, to))]
	compress := n.sys.cfg.CompressDiffs
	bytes := 16
	for _, d := range ds {
		bytes += d.WireBytes(compress)
	}
	return ds, bytes
}

// diffSorter is the scratch sortDiffs works in. Each node owns one and
// reuses it for every fault, so ordering a fault's diffs allocates nothing
// once the slices have grown to the largest fault and cluster seen.
type diffSorter struct {
	src   []*Diff // the diffs by (Node, Idx); an entry is nil once emitted
	nodes []int32 // the creators with diffs left, ascending

	// Dense by creator x: queue src[pos[x]:end[x]]; src[by[x]] (by >= 0)
	// was found Before its head, until emitted; reach[x] = head VT[x]-1
	// (MaxInt32 for none); sum[x], the head's VT sum. Between calls end
	// is all 0 and reach all MaxInt32.
	pos, end, by, reach []int32
	sum                 []int64
	minSum              int64 // the least head sum
	atMin               int   // how many heads have it
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
// Three necessary conditions keep that order and drop its cost, whether
// or not vector times are closed (DESIGN.md, "Diff application order"):
// a.VT.Before(b.VT) needs a smaller component sum, so a head with the
// least sum is unblocked without reading a vector time — between
// concurrent writers, almost every head; it needs b.VT[a.Node] >
// reach[a.Node], so only those heads are tried with Before; and a head
// found blocked stays skipped until its blocker is emitted.
func (s *diffSorter) sortDiffs(ds []*Diff) {
	if len(ds) < 2 {
		return
	}
	if nn := len(ds[0].VT); len(s.reach) < nn {
		s.pos, s.end, s.by, s.sum = make([]int32, nn), make([]int32, nn), make([]int32, nn), make([]int64, nn)
		for len(s.reach) < nn {
			s.reach = append(s.reach, math.MaxInt32)
		}
	}
	s.nodes = s.nodes[:0]
	for _, d := range ds { // a counting sort by creator
		if s.end[d.Node]++; s.end[d.Node] == 1 {
			s.nodes = append(s.nodes, int32(d.Node))
		}
	}
	slices.Sort(s.nodes)
	off := int32(0)
	for _, x := range s.nodes {
		s.pos[x], s.by[x], off = off, off, off+s.end[x]
		s.end[x] = off
	}
	s.src = slices.Grow(s.src[:0], len(ds))[:len(ds)]
	for _, d := range ds {
		s.src[s.by[d.Node]] = d
		s.by[d.Node]++
	}
	for _, x := range s.nodes {
		q := s.src[s.pos[x]:s.end[x]]
		for i := 1; i < len(q); i++ { // in order already, unless shuffled
			for j := i; j > 0 && q[j].Idx < q[j-1].Idx; j-- {
				q[j], q[j-1] = q[j-1], q[j]
			}
		}
		s.by[x] = -1
		s.setHead(x, q[0])
	}
	s.findMin(0)

	lo := 0 // the non-empty queues are nodes[lo:]
	for out := range ds {
		a := lo
		for ; ; a++ {
			x := s.nodes[a]
			if by := s.by[x]; by >= 0 && s.src[by] != nil {
				continue // still blocked by the same diff
			}
			if !s.blocked(x, lo) {
				break
			}
		}
		x := s.nodes[a]
		p := s.pos[x]
		ds[out], s.src[p] = s.src[p], nil
		if s.sum[x] == s.minSum {
			s.atMin--
		}
		if p++; p < s.end[x] {
			s.pos[x], s.by[x] = p, -1
			s.setHead(x, s.src[p]) // a later diff of x: a larger sum
		} else {
			// Queue x is empty: close the gap from the front, which costs
			// no more than the walk over the blocked queues below it did.
			s.end[x], s.reach[x] = 0, math.MaxInt32
			copy(s.nodes[lo+1:a+1], s.nodes[lo:a])
			lo++
		}
		if s.atMin == 0 && lo < len(s.nodes) {
			s.findMin(lo)
		}
	}
}

// setHead makes d the head of queue x.
func (s *diffSorter) setHead(x int32, d *Diff) {
	s.reach[x] = d.VT[x] - 1
	if s.sum[x] = d.vtSum; d.vtSum == 0 {
		s.sum[x] = d.VT.sum()
	}
}

// findMin recounts the least head sum among the queues of nodes[lo:].
func (s *diffSorter) findMin(lo int) {
	s.minSum, s.atMin = math.MaxInt64, 0
	for _, x := range s.nodes[lo:] {
		if v := s.sum[x]; v < s.minSum {
			s.minSum, s.atMin = v, 1
		} else if v == s.minSum {
			s.atMin++
		}
	}
}

// blocked reports whether the head of another non-empty queue (those of
// nodes[lo:]) happens-before the head of queue x, remembering the one
// found. It scans from the highest node down: queues empty in ascending
// order, so the highest blocker stays one longest.
func (s *diffSorter) blocked(x int32, lo int) bool {
	if s.sum[x] == s.minSum {
		return false // no head has a smaller sum
	}
	h := s.src[s.pos[x]].VT
	for i := int(s.nodes[len(s.nodes)-1]); i >= int(s.nodes[lo]); i-- {
		if h[i] > s.reach[i] && i != int(x) && s.src[s.pos[i]].VT.Before(h) {
			s.by[x] = s.pos[i]
			return true
		}
	}
	return false
}

// schedCodePage is the synthetic I-TLB page of the thread scheduler.
const schedCodePage = 1 << 40
