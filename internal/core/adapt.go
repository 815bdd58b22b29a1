package core

import (
	"sort"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// This file implements per-page adaptive coherence (Config.Adapt): an
// online classifier tags each page's sharing pattern from the fault and
// write-notice attribution already flowing through the barrier manager,
// and a controller switches pages between three coherence modes at
// barrier releases.
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
//   - ModeExcl: a single designated owner suspends the twin/diff
//     machinery — writes are absorbed with no interval bookkeeping
//     (the exclusive "window"). Non-owners are invalidated at the mode
//     switch and must fetch a whole-page snapshot from the owner; the
//     first foreign access closes the window (twin + dirty mark), so
//     absorbed writes re-enter the interval machinery before any
//     foreign copy can observe them.
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
	// maxPromotionsPerEpoch caps exclusive-mode promotions per epoch,
	// bounding the invalidation burst a release carries.
	maxPromotionsPerEpoch = 32
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
	// ModeExcl suspends twin/diff machinery at a single owner.
	ModeExcl
)

// String returns a short name for the mode.
func (m PageMode) String() string {
	switch m {
	case ModeMWInv:
		return "mw-inv"
	case ModeMWUpd:
		return "mw-upd"
	case ModeExcl:
		return "excl"
	default:
		return "mode?"
	}
}

// PagePattern is the classifier's tag for a page's sharing behavior,
// following the classic taxonomy: private (one writer, no foreign
// readers), migratory (the single writer moves between nodes),
// producer-consumer (one stable writer, foreign readers), and false
// sharing / write-shared (multiple writers in one epoch).
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
	Owner int32   // exclusive owner, or the producer; -1 when none
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
	barred     bool // foreign access hit exclusive mode: never promote again

	upMisses    int  // consecutive update-mode push epochs with zero hits
	upDemotions int  // times update mode was demoted for uselessness
	upBarred    bool // update mode proved useless twice: stop trying

	mode  PageMode
	owner int32
	subs  []int32
}

func newClassifier() *classifier {
	return &classifier{pages: make(map[PageID]*classPage)}
}

// Step ingests one epoch's activity for pg — the nodes that closed
// write intervals naming it, the nodes that remote-faulted on it, and
// the fault ranges satisfied from pushed-update caches (hits) — and
// returns the page's mode decision plus whether it changed this epoch.
// promoteOK gates exclusive-mode promotion (the controller's per-epoch
// cap); when false a promotable page simply stays put, keeps its
// streak, and retries next epoch.
func (c *classifier) Step(pg PageID, writers, readers []int32, hits int32, promoteOK bool) (ModeDecision, bool) {
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

	// Exclusive mode demotes immediately — hysteresis and cooldown do
	// not apply — the moment any foreign node touches the page: the
	// owner's window is already closed (the foreign fault's whole-page
	// fetch closed it), and the page is permanently barred from
	// re-promotion.
	if st.mode == ModeExcl {
		foreign := false
		for _, w := range writers {
			if w != st.owner {
				foreign = true
			}
		}
		for _, r := range readers {
			if r != st.owner {
				foreign = true
			}
		}
		if foreign {
			st.barred = true
			st.mode = ModeMWInv
			st.subs = nil
			st.cooldown = cooldown
			st.streak = 0
			// Keep st.owner: demoted non-owners may still hold a
			// pending whole-page fetch toward it.
			return c.decision(st), true
		}
	}

	// Update-mode effectiveness feedback: every push epoch (the writer
	// closed an interval, so diffs went out) that produces no cache hits
	// anywhere is wasted wire and receive overhead. Phase-split apps
	// alternate push epochs and hit epochs, so only a RUN of hitless
	// push epochs demotes; a second useless stint bars the page from
	// update mode for good. Like the exclusive-mode escape, this
	// overrides hysteresis and cooldown — it is evidence, not noise.
	if st.mode == ModeMWUpd {
		switch {
		case hits > 0:
			st.upMisses = 0
		case len(writers) > 0:
			st.upMisses++
			if st.upMisses >= 2*hysteresis {
				st.upMisses = 0
				st.upDemotions++
				if st.upDemotions >= 2 {
					st.upBarred = true
				}
				st.mode = ModeMWInv
				st.subs = nil
				st.cooldown = cooldown
				return c.decision(st), true
			}
		}
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
		if st.mode != ModeExcl && !st.barred && st.lastWriter >= 0 {
			if !promoteOK {
				return c.decision(st), false
			}
			st.mode = ModeExcl
			st.owner = st.lastWriter
			st.subs = nil
			st.cooldown = cooldown
			return c.decision(st), true
		}
	case PatternProducerConsumer:
		if st.upBarred {
			return c.decision(st), false
		}
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
		if len(subs) == 0 {
			// No foreign readers on record (possible right after an
			// exclusive-mode demotion cleared the set): update mode with
			// nobody to push to is pure overhead.
			return c.decision(st), false
		}
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
// its barrier arrival: remote-fault counts per page (the classifier's
// reader signal) and update-cache hit counts.
type adaptObs struct {
	pages  []PageID
	counts []int32
	// hitPages/hits report faults satisfied from pushed-update caches —
	// the controller's evidence that a page's update mode is earning its
	// push traffic.
	hitPages []PageID
	hits     []int32
}

// wireBytes is the accounting size of the piggybacked report.
func (o *adaptObs) wireBytes() int {
	if o == nil {
		return 0
	}
	return 8 + 12*len(o.pages) + 12*len(o.hitPages)
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
	hits    map[PageID]int32   // this epoch's update-cache hits per page
}

func newAdaptController(s *System) *adaptController {
	return &adaptController{
		sys:     s,
		cls:     newClassifier(),
		lastIdx: make([]int32, s.cfg.Nodes),
		readers: make(map[PageID][]int32),
		hits:    make(map[PageID]int32),
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
	for i, pg := range o.hitPages {
		ctl.hits[pg] += o.hits[i]
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
	promotions := 0
	for _, pg := range pages {
		rs := ctl.readers[pg]
		sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
		d, changed := ctl.cls.Step(pg, writers[pg], rs, ctl.hits[pg],
			promotions < maxPromotionsPerEpoch)
		if !changed {
			continue
		}
		if d.Mode == ModeExcl {
			promotions++
		}
		rel.changes = append(rel.changes, modeChange{
			page: pg, mode: d.Mode, owner: d.Owner, epoch: ctl.epoch,
			subs: append([]int32(nil), d.Subs...),
		})
	}

	for pg := range ctl.readers {
		delete(ctl.readers, pg)
	}
	for pg := range ctl.hits {
		delete(ctl.hits, pg)
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
	mode  PageMode
	owner int32
	epoch int32 // epoch of the last applied mode change
	subs  []int32

	// needFull: the node was invalidated by an exclusive-mode promotion
	// and must fetch a whole-page snapshot from the owner before diffs
	// can validate the page again (the owner's window writes exist in no
	// diff). Set at promotion, cleared only by a snapshot install; it
	// deliberately survives demotion.
	needFull bool

	// exclOpen: the owner's exclusive window is open — writes are being
	// absorbed with no twin and no dirty mark.
	exclOpen bool

	// exclMissed: a foreign access closed the window; the fast path is
	// disabled so the window can never re-open and absorb writes a
	// previously served snapshot would miss.
	exclMissed bool

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
		ad = &pageAdapt{owner: -1}
		n.pmode[pg] = ad
	}
	return ad
}

// noteFaultObs records a remote fault on pg for the classifier's reader
// signal. Called at every remote-fault entry; adaptObs is non-nil only
// when adaptation is on.
func (n *node) noteFaultObs(pg PageID) {
	if n.adaptObs != nil {
		n.adaptObs[pg]++
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
		o.pages = make([]PageID, 0, len(n.adaptObs))
		for pg := range n.adaptObs {
			o.pages = append(o.pages, pg)
		}
		sort.Slice(o.pages, func(i, j int) bool { return o.pages[i] < o.pages[j] })
		o.counts = make([]int32, len(o.pages))
		for i, pg := range o.pages {
			o.counts[i] = n.adaptObs[pg]
			delete(n.adaptObs, pg)
		}
	}
	if len(n.adaptHits) > 0 {
		o.hitPages = make([]PageID, 0, len(n.adaptHits))
		for pg := range n.adaptHits {
			o.hitPages = append(o.hitPages, pg)
		}
		sort.Slice(o.hitPages, func(i, j int) bool { return o.hitPages[i] < o.hitPages[j] })
		o.hits = make([]int32, len(o.hitPages))
		for i, pg := range o.hitPages {
			o.hits[i] = n.adaptHits[pg]
			delete(n.adaptHits, pg)
		}
	}
	return o
}

// applyAdaptRelease applies the epoch's mode-change notices at this node
// (engine context, before releaseBarrier wakes anyone).
func (n *node) applyAdaptRelease(rel *adaptRelease) {
	for i := range rel.changes {
		mc := &rel.changes[i]
		ad := n.ensureAdapt(mc.page)
		prevMode, prevOwner := ad.mode, ad.owner
		ad.mode = mc.mode
		ad.owner = mc.owner
		ad.epoch = mc.epoch
		ad.subs = mc.subs
		if mc.mode != prevMode {
			// A mode transition invalidates push chains. A subs-only
			// refresh (still update mode) must NOT: the pushes that just
			// arrived during the barrier wait are exactly what the next
			// epoch's faults will hit.
			ad.cache = nil
		}
		switch {
		case mc.mode == ModeExcl && int32(n.id) == mc.owner:
			// A fresh exclusive grant: clear any miss left by an earlier
			// stint so the owner's next write can reopen the window. The
			// checker's excl-no-diff invariant relies on this — between
			// the grant and the window close the owner commits nothing.
			ad.exclMissed = false
		case mc.mode == ModeExcl && int32(n.id) != mc.owner:
			// Stale copies from before the promotion would otherwise
			// read forever: exclusive mode emits no write notices.
			p := n.pageAt(mc.page)
			p.state = PageInvalid
			ad.needFull = true
		case prevMode == ModeExcl && mc.mode != ModeExcl &&
			int32(n.id) == prevOwner && ad.exclOpen:
			// Demotion with the window still open (possible only if no
			// foreign access ever closed it): close it here so absorbed
			// writes re-enter the interval machinery.
			n.closeExclWindow(n.pageAt(mc.page), ad)
		}
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
func (n *node) consumeCached(pg PageID, ad *pageAdapt, ranges []diffRange) (remote []diffRange, cached []*Diff) {
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
		if n.adaptHits != nil {
			n.adaptHits[pg]++
		}
		if c.to <= r.to {
			delete(ad.cache, int32(r.node))
		}
	}
	return remote, cached
}

// ---------------------------------------------------------------------
// Exclusive mode: owner window, whole-page serving.

// closeExclWindow ends the owner's exclusive window (engine or thread
// context at the owner): the current page contents become the twin, the
// page joins the dirty list, and subsequent writes flow through the
// normal interval machinery. Absorbed window writes are therefore
// committed before any foreign copy can be served.
func (n *node) closeExclWindow(p *page, ad *pageAdapt) {
	ad.exclOpen = false
	ad.exclMissed = true
	if p.state == PageReadWrite && p.twin == nil {
		n.materialize(p)
		n.newTwin(p)
		n.markDirty(p)
		if tr := n.sys.tracer; tr != nil {
			tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindTwinCreate,
				Node: int32(n.id), Thread: -1, Page: int32(p.id)})
		}
	}
	n.stats.ExclWindowCloses++
	if tr := n.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: n.proc.LocalNow(), Kind: trace.KindExclWindowClose,
			Node: int32(n.id), Thread: -1, Page: int32(p.id), Aux: int64(ad.epoch)})
	}
}

// serveFullPage answers a whole-page fetch at the (current or former)
// exclusive owner (engine context): close a still-open window, then
// reply with the committed page image — the twin when an interval is
// open, else the live data — and the owner's applied-coverage vector,
// with the owner's own entry at its current interval index.
func (n *node) serveFullPage(pg PageID, reply func(data []byte, vec VClock, bytes int, service sim.Time)) {
	p := n.pageAt(pg)
	if ad := n.adaptOf(pg); ad != nil && ad.exclOpen {
		n.closeExclWindow(p, ad)
	}
	n.materialize(p)
	src := p.data
	if p.twin != nil {
		src = p.twin
	}
	data := make([]byte, len(src))
	copy(data, src)
	vec := NewVClock(n.sys.cfg.Nodes)
	for i := range p.writers {
		vec[p.writers[i].node] = p.writers[i].applied
	}
	vec[n.id] = n.curIdx
	bytes := 16 + len(data) + vec.wireBytes()
	reply(data, vec, bytes, n.sys.cfg.DiffServeCost)
}

// fullFetchFault fetches a whole-page snapshot from the exclusive
// owner (thread context; the fault span is already open and signal
// delivery charged). The install happens in applyFault via
// faultState.snap; residual writer gaps, if any, re-fault normally.
func (t *Thread) fullFetchFault(p *page, ad *pageAdapt, fstart sim.Time) {
	n := t.node
	sys := t.sys
	owner := int(ad.owner)
	fs := &faultState{page: p, outstanding: 1, start: fstart}
	p.fault = fs
	n.stats.RemoteFaults++
	n.stats.FullFetches++
	n.stats.OutstandingFaults += int64(n.inFlightFaults)
	n.stats.OutstandingLocks += int64(n.inFlightLocks)
	n.inFlightFaults++
	target := sys.nodes[owner]
	sys.send(t.task, NodeID(n.id), NodeID(owner),
		ClassDiff, diffRequestBytes, func() {
			target.serveFullPage(p.id, func(data []byte, vec VClock, bytes int, service sim.Time) {
				sys.eng.ScheduleOn(target.proc, target.proc.LocalNow()+service, func() {
					sys.send(nil, NodeID(owner), NodeID(n.id),
						ClassDiff, bytes, func() {
							fs.snap = data
							fs.snapVec = vec
							fs.outstanding = 0
							fs.ready = true
							sys.eng.Wake(fs.waiters[0].task)
						})
				})
			})
		})
	fs.waiters = append(fs.waiters, t)
	t.blockFault(p)
	if p.fault == fs && fs.ready && fs.waiters[0] == t {
		t.applyFault(fs)
	}
}
