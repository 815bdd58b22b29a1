package core

import (
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// faultState tracks one in-flight remote page fetch: the parallel diff
// requests sent, the replies collected, and the local threads blocked on
// the page. The first blocked thread applies the diffs when the last
// reply arrives; later threads are Block-Same-Page waiters.
type faultState struct {
	page        *page
	ranges      []diffRange
	outstanding int
	diffs       []*Diff
	waiters     []*Thread
	ready       bool     // all replies received; applier may proceed
	start       sim.Time // fault-span open (before signal delivery), for fault.resolve's Dur
}

// ensureAccess makes the page accessible for the requested access kind,
// dispatching to the configured protocol's fault state machine. The LRC
// path runs remote fetches for invalid pages and twin creation for writes
// to read-only pages.
func (t *Thread) ensureAccess(p *page, write bool) {
	cfg := &t.sys.cfg
	if cfg.Protocol == ProtocolSW {
		t.swEnsureAccess(p, write)
		return
	}
	n := t.node
	for {
		switch {
		case p.state == PageReadWrite:
			return

		case p.state == PageReadOnly && !write:
			return

		case p.state == PageReadOnly:
			// Write to a valid read-only page: local fault. Charge
			// signal delivery, create the twin (a page-length copy
			// through the cache), re-enable writes (mprotect).
			t.task.Advance(cfg.SignalCost)
			n.materialize(p)
			if p.twin == nil {
				n.newTwin(p)
				t.task.Advance(n.mem.AccessRange(t.pageVA(p.id), cfg.PageSize))
				if tr := t.sys.tracer; tr != nil {
					tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindTwinCreate,
						Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id)})
				}
			}
			t.task.Advance(cfg.MprotectCost)
			if p.state != PageReadOnly || p.twin == nil {
				// While the charges above yielded to the engine, a
				// handler either invalidated the page (write notice) or
				// consumed the twin to serve a diff request. Re-run the
				// fault state machine: writes must never proceed
				// without a live twin or they escape the next diff.
				continue
			}
			p.state = PageReadWrite
			n.markDirty(p)
			n.stats.LocalFaults++
			return

		default: // PageInvalid
			t.remoteFault(p)
		}
	}
}

// remoteFault fetches the diffs needed to validate p, blocking the thread.
// If a fetch for p is already in flight the thread joins it (Block Same
// Page). On return the page may still be invalid (a write notice arrived
// during the fetch); the caller's loop re-faults.
func (t *Thread) remoteFault(p *page) {
	n := t.node
	cfg := &t.sys.cfg

	if fs := p.fault; fs != nil {
		n.stats.BlockSamePage++
		fs.waiters = append(fs.waiters, t)
		t.blockFault(p)
		return
	}

	// The fault span opens before signal delivery is charged, matching
	// the paper's accounting of the ~1100µs remote fault path.
	fstart := t.task.Now()
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: fstart, Kind: trace.KindFaultStart,
			Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id)})
	}
	t.task.Advance(cfg.SignalCost)
	ranges := p.missingFrom()
	if len(ranges) == 0 {
		// Raced with a completing fetch; nothing is missing anymore.
		p.state = validState(p)
		if tr := t.sys.tracer; tr != nil {
			tr.Emit(trace.Event{T: t.task.Now(), Dur: t.task.Now() - fstart, Kind: trace.KindFaultResolve,
				Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id)})
		}
		return
	}

	span := 0
	for _, r := range ranges {
		span += int(r.to - r.from) // at most a diff an interval
	}
	fs := &faultState{page: p, ranges: ranges, outstanding: len(ranges),
		diffs: make([]*Diff, 0, span), start: fstart}
	p.fault = fs
	n.stats.RemoteFaults++
	n.stats.OutstandingFaults += int64(n.inFlightFaults)
	n.stats.OutstandingLocks += int64(n.inFlightLocks)
	n.inFlightFaults++

	sys := t.sys
	for _, r := range ranges {
		l := n.leg()
		l.fs, l.to, l.r, l.phase = fs, sys.nodes[r.node], r, 0
		sys.send(t.task, NodeID(n.id), NodeID(r.node), ClassDiff, diffRequestBytes, l.step)
	}

	fs.waiters = append(fs.waiters, t)
	t.blockFault(p)

	if p.fault == fs && fs.ready && fs.waiters[0] == t {
		t.applyFault(fs)
	}
}

// faultLeg is one writer's part of a remote fault, run by one handler
// bound once: request at the writer (phase 1), service time spent (2),
// reply at the faulter (3). Nodes reuse finished legs: a fault allocates
// nothing per writer.
type faultLeg struct {
	fs       *faultState
	from, to *node // the faulting node and the writer
	r        diffRange
	phase    uint8
	ds       []*Diff
	bytes    int
	step     func()
}

func (n *node) leg() (l *faultLeg) {
	if k := len(n.legs); k > 0 {
		l, n.legs = n.legs[k-1], n.legs[:k-1]
		return l
	}
	l = &faultLeg{from: n}
	l.step = l.run
	return l
}

// run advances the leg by one phase (engine context).
func (l *faultLeg) run() {
	sys := l.from.sys
	switch l.phase++; l.phase {
	case 1:
		l.ds, l.bytes = l.to.serveDiffRequest(l.fs.page.id, l.r.from, l.r.to)
		sys.eng.ScheduleOn(l.to.proc, l.to.proc.LocalNow()+sys.cfg.DiffServeCost, l.step)
	case 2:
		sys.send(nil, NodeID(l.to.id), NodeID(l.from.id), ClassDiff, l.bytes, l.step)
	default:
		fs := l.fs
		fs.diffs = append(fs.diffs, l.ds...)
		l.fs, l.ds = nil, nil
		l.from.legs = append(l.from.legs, l)
		if fs.outstanding--; fs.outstanding == 0 {
			fs.ready = true
			sys.eng.Wake(fs.waiters[0].task)
		}
	}
}

// applyFault installs the collected diffs in happened-before order,
// charging the memory-system cost of every modified byte, then releases
// the fault's co-waiters.
func (t *Thread) applyFault(fs *faultState) {
	n := t.node
	p := fs.page
	t.node.materialize(p)
	sortDiffs(fs.diffs)
	if t.sys.cfg.DetectRaces {
		n.detectRaces(fs.diffs)
	}
	base := t.pageVA(p.id)
	for _, d := range fs.diffs {
		d.Apply(p.data, p.twin)
		if w := p.writer(d.Node); d.Idx > w.applied {
			w.applied = d.Idx
		}
		n.stats.DiffsUsed++
		for _, run := range d.Runs {
			t.task.Advance(n.mem.AccessRange(base+uint64(run.Off), int(run.Len)))
		}
		if tr := t.sys.tracer; tr != nil {
			tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindDiffApply,
				Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id),
				Peer: int32(d.Node), Arg: int64(d.Idx), Aux: int64(d.Bytes())})
		}
	}
	// Empty replies still certify the requested ranges.
	for _, r := range fs.ranges {
		if w := p.writer(r.node); w.applied < r.to {
			w.applied = r.to
		}
	}
	t.task.Advance(t.sys.cfg.MprotectCost)

	if p.consistent() {
		p.state = validState(p)
	} // else: a write notice arrived mid-fetch; stay invalid and re-fault.

	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: t.task.Now(), Dur: t.task.Now() - fs.start, Kind: trace.KindFaultResolve,
			Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id),
			Arg: int64(len(fs.diffs))})
	}
	p.fault = nil
	n.inFlightFaults--
	for _, w := range fs.waiters[1:] {
		t.sys.eng.WakeAt(w.task, t.task.Now())
	}
}

// validState is the access right a consistent page returns to: read-write
// if the node is an active concurrent writer, read-only otherwise.
func validState(p *page) PageState {
	if p.openDirty {
		return PageReadWrite
	}
	return PageReadOnly
}

// diffRequestBytes is the wire size of a diff request (page id + range).
const diffRequestBytes = 16

// detectRaces counts pairs of concurrent (causally unordered) diffs that
// write overlapping bytes — the paper's definition of a probable data
// race in a multiple-writer protocol. Each Before sits behind one of its
// own components — b's creator must have heard of a's interval — so a
// pair of concurrent writers costs two loads, not two O(nodes) scans.
func (n *node) detectRaces(ds []*Diff) {
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			a, b := ds[i], ds[j]
			if a.Node == b.Node ||
				(b.VT[a.Node] >= a.VT[a.Node] && a.VT.Before(b.VT)) ||
				(a.VT[b.Node] >= b.VT[b.Node] && b.VT.Before(a.VT)) {
				continue
			}
			if a.Overlaps(b) {
				n.stats.RacesDetected++
			}
		}
	}
}
