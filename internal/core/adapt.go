package core

import (
	"maps"
	"slices"
	"sort"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// This file implements per-page adaptive coherence (Config.Adapt): an
// online classifier tags each page's sharing pattern from the fault and
// write-notice attribution already flowing through the barrier manager,
// and a controller switches producer-consumer pages into update mode at
// barrier releases, and every other page back to invalidate.
//
// Mode semantics:
//
//   - ModeMWInv (default): the unmodified lazy multi-writer invalidate
//     protocol — twins, diffs, write notices.
//   - ModeMWUpd: invalidation semantics are unchanged, but the writer
//     eagerly pushes each closed interval's diff to the page's
//     subscribers. A subscriber caches contiguous push chains per
//     writer and satisfies later fault ranges locally, removing the
//     request/reply round trip from the paper's ~1100 µs fault path.
//
// Every decision is taken at a global-barrier completion in the
// manager's engine context, stamped with the adaptation epoch, and
// applied on each node before its barrier release wakes any thread —
// all application threads are blocked at that instant, which makes the
// transition atomic across the cluster. All controller iteration is
// over sorted keys, so the decisions — and therefore every downstream
// artifact — are byte-identical at any EngineWorkers count.

// The classifier's thresholds.
const (
	// hysteresis is how many consecutive epochs a sharing pattern must
	// persist before the controller acts on it; it never flaps on
	// alternating patterns.
	hysteresis = 2
	// cooldown is how many epochs a page rests after a mode change
	// before the controller may switch it again.
	cooldown = 3
	// subscriberCap bounds the update-mode subscriber set; pages read by
	// more nodes stay in invalidate mode.
	subscriberCap = 16
)

// PageMode is a page's coherence mode under adaptive coherence.
type PageMode uint8

// Page coherence modes.
const (
	// ModeMWInv is the default lazy multi-writer invalidate protocol.
	ModeMWInv PageMode = iota
	// ModeMWUpd pushes closed-interval diffs eagerly to subscribers.
	ModeMWUpd
)

// String returns a short name for the mode.
func (m PageMode) String() string {
	switch m {
	case ModeMWInv:
		return "mw-inv"
	case ModeMWUpd:
		return "mw-upd"
	default:
		return "mode?"
	}
}

// PagePattern is the classifier's tag for a page's sharing behavior,
// following the classic taxonomy: private (one writer, no foreign
// readers), migratory (the single writer moves between nodes),
// producer-consumer (one stable writer, foreign readers), and false
// sharing / write-shared (multiple writers in one epoch). Only
// producer-consumer promotes a page; migratory and false sharing demote
// it, and private leaves it where it is.
type PagePattern uint8

// Sharing patterns.
const (
	PatternUnknown PagePattern = iota
	PatternPrivate
	PatternMigratory
	PatternProducerConsumer
	PatternFalseSharing
)

// String returns a short name for the pattern.
func (p PagePattern) String() string {
	switch p {
	case PatternPrivate:
		return "private"
	case PatternMigratory:
		return "migratory"
	case PatternProducerConsumer:
		return "producer-consumer"
	case PatternFalseSharing:
		return "false-sharing"
	default:
		return "unknown"
	}
}

// ModeDecision is the classifier's current prescription for one page.
type ModeDecision struct {
	Mode  PageMode
	Owner int32   // the producer; -1 when none
	Subs  []int32 // update-mode subscriber nodes, ascending
}

// classifier is the pure sharing-pattern engine: it consumes one
// (writers, readers) observation per page per epoch and prescribes a
// coherence mode with hysteresis and cooldown. It touches no protocol
// state, so unit tests drive it directly with synthetic traces.
type classifier struct {
	pages map[PageID]*classPage
}

type classPage struct {
	pattern    PagePattern
	streak     int // consecutive epochs observing pattern
	lastWriter int32
	cooldown   int

	mode  PageMode
	owner int32
	subs  []int32
}

func newClassifier() *classifier {
	return &classifier{pages: make(map[PageID]*classPage)}
}

// Step ingests one epoch's activity for pg — the nodes that closed
// write intervals naming it and the nodes that remote-faulted on it —
// and returns the page's mode decision plus whether it changed this
// epoch.
func (c *classifier) Step(pg PageID, writers, readers []int32) (ModeDecision, bool) {
	st := c.pages[pg]
	if st == nil {
		st = &classPage{lastWriter: -1, owner: -1}
		c.pages[pg] = st
	}

	pat := st.pattern
	switch {
	case len(writers) >= 2:
		pat = PatternFalseSharing
	case len(writers) == 1:
		w := writers[0]
		foreign := false
		for _, r := range readers {
			if r != w {
				foreign = true
				break
			}
		}
		switch {
		case foreign:
			pat = PatternProducerConsumer
		case st.lastWriter >= 0 && st.lastWriter != w:
			pat = PatternMigratory
		default:
			pat = PatternPrivate
		}
		st.lastWriter = w
	case len(readers) > 0 && st.lastWriter >= 0:
		// Readers-only epoch: phase-split applications write and read in
		// different barrier epochs. Foreign reads of the last writer's
		// data are producer-consumer evidence, not a new pattern.
		for _, r := range readers {
			if r != st.lastWriter {
				pat = PatternProducerConsumer
				break
			}
		}
	}
	// Producer-consumer subsumes private: a single-writer epoch with no
	// foreign readers is just the producer between read phases, so it
	// neither contradicts the pattern nor resets the streak — and the
	// private → producer-consumer upgrade continues the streak rather
	// than restarting it.
	if pat == PatternPrivate && st.pattern == PatternProducerConsumer {
		pat = PatternProducerConsumer
	}
	switch {
	case pat == st.pattern:
		st.streak++
	case pat == PatternProducerConsumer && st.pattern == PatternPrivate:
		st.pattern = pat
		st.streak++
	default:
		st.pattern = pat
		st.streak = 1
	}

	if st.cooldown > 0 {
		st.cooldown--
		return c.decision(st), false
	}
	if st.streak < hysteresis {
		return c.decision(st), false
	}

	switch st.pattern {
	case PatternPrivate:
		// Nobody else touches the page: no mode earns anything, so it
		// keeps the one it has.
	case PatternProducerConsumer:
		if st.mode != ModeMWUpd {
			// Promotion needs fresh consumer evidence — a foreign fault in
			// THIS epoch, not a pattern carried over from one. A page read
			// once (initialization, a one-shot result collection) keeps the
			// producer-consumer tag while only its producer writes; pushing
			// to its recorded readers would be pure overhead.
			fresh := false
			for _, r := range readers {
				if r != st.lastWriter {
					fresh = true
					break
				}
			}
			if !fresh {
				return c.decision(st), false
			}
		}
		subs := mergeSubs(st.subs, readers, st.lastWriter)
		if len(subs) > subscriberCap {
			// Too widely read to push to everyone; fall back.
			if st.mode == ModeMWUpd {
				st.mode = ModeMWInv
				st.subs = nil
				st.cooldown = cooldown
				return c.decision(st), true
			}
			return c.decision(st), false
		}
		if st.mode != ModeMWUpd || len(subs) != len(st.subs) {
			st.mode = ModeMWUpd
			st.owner = st.lastWriter
			st.subs = subs
			st.cooldown = cooldown
			return c.decision(st), true
		}
		st.subs = subs
	default: // migratory, false sharing, unknown
		if st.mode != ModeMWInv {
			st.mode = ModeMWInv
			st.subs = nil
			st.cooldown = cooldown
			return c.decision(st), true
		}
	}
	return c.decision(st), false
}

func (c *classifier) decision(st *classPage) ModeDecision {
	return ModeDecision{Mode: st.mode, Owner: st.owner, Subs: st.subs}
}

// Pattern reports the classifier's current tag for pg (for tests and
// introspection).
func (c *classifier) Pattern(pg PageID) PagePattern {
	if st := c.pages[pg]; st != nil {
		return st.pattern
	}
	return PatternUnknown
}

// mergeSubs folds this epoch's readers (minus the writer) into the
// sticky subscriber set, keeping it sorted and deduplicated. Sticky
// growth avoids flapping when a consumer skips an epoch.
func mergeSubs(subs, readers []int32, writer int32) []int32 {
	out := append([]int32(nil), subs...)
	for _, r := range readers {
		if r == writer {
			continue
		}
		i := sort.Search(len(out), func(i int) bool { return out[i] >= r })
		if i < len(out) && out[i] == r {
			continue
		}
		out = append(out, 0)
		copy(out[i+1:], out[i:])
		out[i] = r
	}
	return out
}

// ---------------------------------------------------------------------
// Controller (barrier-manager side, node 0 engine context only).

// modeChange is one epoch-stamped mode-change notice, broadcast on
// every barrier release and applied identically by all nodes.
type modeChange struct {
	page  PageID
	mode  PageMode
	owner int32
	epoch int32
	subs  []int32
}

// adaptRelease is the adaptation payload piggybacked on barrier release
// messages: the epoch's mode-change notices.
type adaptRelease struct {
	epoch   int32
	changes []modeChange
}

// wireBytes is the accounting size of the piggybacked payload.
func (r *adaptRelease) wireBytes() int {
	if r == nil {
		return 0
	}
	b := 8
	for _, mc := range r.changes {
		b += 16 + 4*len(mc.subs)
	}
	return b
}

// adaptObs is one node's per-epoch observation report, piggybacked on
// its barrier arrival: the pages it remote-faulted on (the classifier's
// reader signal), ascending.
type adaptObs struct {
	pages []PageID
}

// wireBytes is the accounting size of the piggybacked report.
func (o *adaptObs) wireBytes() int {
	if o == nil {
		return 0
	}
	return 8 + 12*len(o.pages)
}

// adaptController owns all cluster-level adaptation state. It is
// touched exclusively from the barrier manager's (node 0's) engine
// context — observation ingestion at arrivals, decisions at
// completions — so it needs no locking under the windowed engine.
type adaptController struct {
	sys *System
	cls *classifier

	epoch   int32
	lastIdx []int32 // per node: highest interval index already classified

	readers map[PageID][]int32 // this epoch's remote-faulting nodes per page
}

func newAdaptController(s *System) *adaptController {
	return &adaptController{
		sys:     s,
		cls:     newClassifier(),
		lastIdx: make([]int32, s.cfg.Nodes),
		readers: make(map[PageID][]int32),
	}
}

// noteObs ingests one node's arrival report.
func (ctl *adaptController) noteObs(from int, o *adaptObs) {
	if o == nil {
		return
	}
	for _, pg := range o.pages {
		ctl.readers[pg] = append(ctl.readers[pg], int32(from))
	}
}

// decide runs at a global-barrier completion: it derives this epoch's
// writer sets from the manager's interval table (arrivals already
// carried every node's new intervals), feeds the classifier page by
// page in sorted order, and returns the release payload — or nil when
// no page changed mode.
func (ctl *adaptController) decide() *adaptRelease {
	s := ctl.sys
	mgr := s.nodes[0]
	writers := make(map[PageID][]int32)
	if mgr.intervals != nil {
		for nodeID := 0; nodeID < s.cfg.Nodes; nodeID++ {
			infos := mgr.intervals[nodeID]
			i := sort.Search(len(infos), func(i int) bool { return infos[i].Idx > ctl.lastIdx[nodeID] })
			for _, info := range infos[i:] {
				for _, pg := range info.Pages {
					ws := writers[pg]
					if len(ws) == 0 || ws[len(ws)-1] != int32(nodeID) {
						writers[pg] = append(ws, int32(nodeID))
					}
				}
			}
			if len(infos) > 0 {
				ctl.lastIdx[nodeID] = infos[len(infos)-1].Idx
			}
		}
	}

	pages := make([]PageID, 0, len(writers)+len(ctl.readers))
	for pg := range writers {
		pages = append(pages, pg)
	}
	for pg := range ctl.readers {
		if _, ok := writers[pg]; !ok {
			pages = append(pages, pg)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })

	rel := &adaptRelease{epoch: ctl.epoch}
	for _, pg := range pages {
		rs := ctl.readers[pg]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		d, changed := ctl.cls.Step(pg, writers[pg], rs)
		if !changed {
			continue
		}
		rel.changes = append(rel.changes, modeChange{
			page: pg, mode: d.Mode, owner: d.Owner, epoch: ctl.epoch,
			subs: append([]int32(nil), d.Subs...),
		})
	}

	for pg := range ctl.readers {
		delete(ctl.readers, pg)
	}
	ctl.epoch++
	if len(rel.changes) == 0 {
		return nil
	}
	return rel
}

// ---------------------------------------------------------------------
// Node side: per-page adaptive state and notice application.

// pageAdapt is one node's adaptive state for one page.
type pageAdapt struct {
	mode PageMode
	subs []int32

	// cache holds pushed-diff chains per writer (update mode,
	// subscriber side).
	cache map[int32]*updCache
}

// updCache is one contiguous chain of pushed diffs from one writer:
// the diffs cover intervals (from, to].
type updCache struct {
	from, to int32
	diffs    []*Diff
}

// updCacheCap bounds a chain's length; a longer backlog resets to the
// freshest push (the faulting range would need the dropped prefix from
// the network anyway).
const updCacheCap = 16

// adaptOf returns the node's adaptive state for pg, or nil.
func (n *node) adaptOf(pg PageID) *pageAdapt {
	if n.pmode == nil {
		return nil
	}
	return n.pmode[pg]
}

func (n *node) ensureAdapt(pg PageID) *pageAdapt {
	if n.pmode == nil {
		n.pmode = make(map[PageID]*pageAdapt)
	}
	ad := n.pmode[pg]
	if ad == nil {
		ad = &pageAdapt{}
		n.pmode[pg] = ad
	}
	return ad
}

// noteFaultObs records a remote fault on pg for the classifier's reader
// signal. Called at every remote-fault entry; adaptObs is non-nil only
// when adaptation is on.
func (n *node) noteFaultObs(pg PageID) {
	if n.adaptObs != nil {
		n.adaptObs[pg] = struct{}{}
	}
}

// takeAdaptObs snapshots and resets the node's observation report at a
// barrier arrival (thread context, all local threads blocked or
// arriving). Returns nil when adaptation is off.
func (n *node) takeAdaptObs() *adaptObs {
	if n.sys.adapt == nil {
		return nil
	}
	o := &adaptObs{}
	if len(n.adaptObs) > 0 {
		o.pages = slices.Sorted(maps.Keys(n.adaptObs))
		clear(n.adaptObs)
	}
	return o
}

// applyAdaptRelease applies the epoch's mode-change notices at this node
// (engine context, before releaseBarrier wakes anyone).
func (n *node) applyAdaptRelease(rel *adaptRelease) {
	for i := range rel.changes {
		mc := &rel.changes[i]
		ad := n.ensureAdapt(mc.page)
		if mc.mode != ad.mode {
			// A mode transition invalidates push chains. A subs-only
			// refresh (still update mode) must NOT: the pushes that just
			// arrived during the barrier wait are exactly what the next
			// epoch's faults will hit.
			ad.cache = nil
		}
		ad.mode, ad.subs = mc.mode, mc.subs
		n.stats.ModeChanges++
		if tr := n.sys.tracer; tr != nil {
			tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindModeChange,
				Node: int32(n.id), Thread: -1, Page: int32(mc.page),
				Peer: mc.owner, Arg: int64(mc.mode), Aux: int64(mc.epoch)})
		}
	}
}

// ---------------------------------------------------------------------
// Update mode: eager push, subscriber cache, fault-time consumption.

// pendingPush is one queued update push: the just-closed interval's
// diff for one page, bound for the page's subscribers. Pushes queue at
// closeInterval and flush at the next barrier release (or right behind
// a departing lock grant), so the eager data never delays the
// release-critical path.
type pendingPush struct {
	pg      PageID
	d       *Diff
	prevIdx int32
	subs    []int32
}

// queuePush records an update push for the interval that just closed
// over p (thread context, from closeInterval). prevIdx is this node's
// previous diff index for the page, anchoring the receiver's chain
// contiguity check.
func (n *node) queuePush(p *page, d *Diff, ad *pageAdapt) {
	prevIdx := int32(0)
	if len(p.diffs) >= 2 {
		prevIdx = p.diffs[len(p.diffs)-2].Idx
	}
	n.pendingPush = append(n.pendingPush, pendingPush{
		pg: p.id, d: d, prevIdx: prevIdx, subs: ad.subs,
	})
}

// flushPushes sends every queued update push. At a lock release it runs
// in thread context right after the grant departs; at a barrier it runs
// in engine context at the RELEASE (not the arrival), so pushed data
// rides the idle post-barrier wire instead of racing the release
// broadcast for subscriber ingress. Either way the release-critical
// message always reserves the egress first. task is the releasing
// thread's, nil in engine context.
func (n *node) flushPushes(task *sim.Task) {
	if len(n.pendingPush) == 0 {
		return
	}
	sys := n.sys
	for _, pp := range n.pendingPush {
		bytes := 16 + pp.d.WireBytes(sys.cfg.CompressDiffs)
		for _, sub := range pp.subs {
			if sub == int32(n.id) {
				continue
			}
			n.stats.UpdatePushes++
			sys.send(task, NodeID(n.id), NodeID(sub), ClassUpdate, bytes, func() {
				sys.nodes[sub].receiveUpdate(pp.pg, pp.d, pp.prevIdx)
			})
		}
	}
	n.pendingPush = n.pendingPush[:0]
}

// receiveUpdate accepts a pushed diff at a subscriber (engine context),
// extending the per-writer chain when contiguous and resetting it
// otherwise. Pushes for pages no longer in update mode are dropped.
func (n *node) receiveUpdate(pg PageID, d *Diff, prevIdx int32) {
	ad := n.adaptOf(pg)
	if ad == nil || ad.mode != ModeMWUpd {
		return
	}
	if ad.cache == nil {
		ad.cache = make(map[int32]*updCache)
	}
	c := ad.cache[int32(d.Node)]
	if c == nil {
		c = &updCache{}
		ad.cache[int32(d.Node)] = c
	}
	switch {
	case len(c.diffs) == 0:
		c.from, c.to = prevIdx, d.Idx
		c.diffs = append(c.diffs[:0], d)
	case c.to == prevIdx && len(c.diffs) < updCacheCap:
		c.to = d.Idx
		c.diffs = append(c.diffs, d)
	default:
		c.from, c.to = prevIdx, d.Idx
		c.diffs = append(c.diffs[:0], d)
	}
}

// consumeCached splits a fault's missing ranges into locally satisfied
// diffs (from pushed chains) and ranges that still need the network.
// A chain covering (from, to] ⊇ (r.from, r.to] is a hit; a chain that
// cannot cover the range is stale and dropped.
func (n *node) consumeCached(ad *pageAdapt, ranges []diffRange) (remote []diffRange, cached []*Diff) {
	for _, r := range ranges {
		c := ad.cache[int32(r.node)]
		if c == nil || len(c.diffs) == 0 || c.from > r.from || c.to < r.to {
			if c != nil {
				delete(ad.cache, int32(r.node))
			}
			remote = append(remote, r)
			continue
		}
		for _, d := range c.diffs {
			if d.Idx > r.from && d.Idx <= r.to {
				cached = append(cached, d)
			}
		}
		n.stats.UpdateHits++
		if c.to <= r.to {
			delete(ad.cache, int32(r.node))
		}
	}
	return remote, cached
}
