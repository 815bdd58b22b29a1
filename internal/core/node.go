package core

import (
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
	csScratch      []int32               // copyset fan-out scratch (swServe)
	legs           []*faultLeg           // finished fault legs, for reuse (fault.go)
	relIn          *episode              // the release message in flight here (sync.go)
	relStep        func()                // n.applyRelease, bound at the first release
	barrierSentIdx int32                 // own intervals already shipped to the barrier manager

	// In-flight remote request counts for outstanding-request sampling.
	inFlightFaults int
	inFlightLocks  int

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
		d.Bytes() // fill the size cache while d is this node's alone
		p.diffs = append(p.diffs, d)
		n.stats.DiffsCreated++
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

// sortDiffs orders a fault's diffs for application into a linear
// extension of happens-before, so a causally-later diff is always applied
// after every diff it supersedes: a.VT.Before(b.VT) makes a's component
// sum the smaller, closed vector times or not, so ascending vtSum is such
// an extension. Creator and interval break ties, so the order does not
// depend on the order the replies arrived in (DESIGN.md, "Diff
// application order").
func sortDiffs(ds []*Diff) {
	slices.SortFunc(ds, func(a, b *Diff) int {
		switch {
		case a.vtSum != b.vtSum:
			if a.vtSum < b.vtSum {
				return -1
			}
			return 1
		case a.Node != b.Node:
			return a.Node - b.Node
		default:
			return int(a.Idx - b.Idx)
		}
	})
}

// schedCodePage is the synthetic I-TLB page of the thread scheduler.
const schedCodePage = 1 << 40
