package check

import (
	"fmt"
	"slices"
	"strings"

	"cvm/internal/trace"
)

// checkerRef is the checker Checker replaced, kept verbatim as the oracle
// the new state layout must match violation for violation (as
// internal/trace/chrome_ref_test.go keeps the old writer): one map per
// invariant, keyed by (node, page), (node, page, interval) and (node,
// interval). Only its names differ. Its Finish ranges over maps, so the
// order of what Finish adds is not comparable; the differential test
// compares that part as a set.

// nodePageRef keys per-(node,page) twin state.
type nodePageRef struct {
	node, page int32
}

// diffKeyRef identifies one created diff: creator node, page, interval.
type diffKeyRef struct {
	node, page int32
	idx        int64
}

// intervalRef identifies one closed interval: its node and index.
type intervalRef struct {
	node int32
	idx  int64
}

// lockHolderRef records who holds a lock.
type lockHolderRef struct {
	node, thread int32
}

// pageEpochRef keys the cluster-wide mode agreement per adaptation epoch.
type pageEpochRef struct {
	page  int32
	epoch int64
}

// modeDeclRef is the content of one mode-change notice: every node that
// applies epoch E for page P must apply the same declaration.
type modeDeclRef struct {
	mode  int64
	owner int32
}

// barrierStateRef tracks one global barrier id across epochs. Epochs of
// the same id are sequential, but releases of epoch k can interleave
// with arrivals of epoch k+1 (a released node races ahead while another
// node's release message is still in flight), so arrivals and
// outstanding releases are tracked independently.
type barrierStateRef struct {
	arrived     int     // arrivals toward the current epoch
	outstanding int     // releases still owed for completed epochs
	join        []int64 // the latest epoch's join of every node's clock
}

// localBarrierStateRef tracks one (node, id) local barrier.
type localBarrierStateRef struct {
	arrived int
}

// checkerRef audits a protocol event stream. It implements trace.Tracer.
// Like the Recorder, it relies on the simulator's sequential dispatch
// and must not be shared between concurrently running systems.
type checkerRef struct {
	nodes   int
	threads int // per node

	violations []Violation
	total      int

	twins     map[nodePageRef]bool    // outstanding twin per (node, page)
	diffsMade map[diffKeyRef]bool     // diffs created, for uniqueness
	lockHeld  map[int32]lockHolderRef // lock id → holder
	barriers  map[int32]*barrierStateRef
	localBars map[nodePageRef]*localBarrierStateRef // (node, barrier id)

	// Happens-before, from sync events alone (diff-apply-hb): each node's
	// vector clock (its own component is the highest interval seen
	// closing), the clock each lock's last release left, the clock each
	// interval closed with, and per (node, page) the join of the clocks of
	// the diffs applied there.
	clk     [][]int64
	lockClk map[int32][]int64
	intvClk map[intervalRef][]int64
	pageClk map[nodePageRef][]int64

	// Adaptive-coherence state. All maps stay empty for plain LRC runs
	// (the kinds below are never emitted), so the checker costs nothing
	// extra there.
	modeEpoch map[nodePageRef]int64        // last mode-change epoch applied
	modeAt    map[pageEpochRef]modeDeclRef // cluster-wide declaration per epoch
}

// newCheckerRef returns a checkerRef for a cluster of the given shape.
func newCheckerRef(nodes, threadsPerNode int) *checkerRef {
	c := &checkerRef{
		nodes:     nodes,
		threads:   threadsPerNode,
		twins:     make(map[nodePageRef]bool),
		diffsMade: make(map[diffKeyRef]bool),
		lockHeld:  make(map[int32]lockHolderRef),
		barriers:  make(map[int32]*barrierStateRef),
		localBars: make(map[nodePageRef]*localBarrierStateRef),
		clk:       make([][]int64, nodes),
		lockClk:   make(map[int32][]int64),
		intvClk:   make(map[intervalRef][]int64),
		pageClk:   make(map[nodePageRef][]int64),
		modeEpoch: make(map[nodePageRef]int64),
		modeAt:    make(map[pageEpochRef]modeDeclRef),
	}
	for i := range c.clk {
		c.clk[i] = make([]int64, nodes)
	}
	return c
}

// joinRef raises each component of dst to at least src's.
func joinRef(dst, src []int64) {
	for i, v := range src {
		dst[i] = max(dst[i], v)
	}
}

func (c *checkerRef) violate(e trace.Event, page int32, invariant, format string, args ...any) {
	c.total++
	if len(c.violations) < maxDetailed {
		c.violations = append(c.violations, Violation{
			T: e.T, Node: e.Node, Page: page,
			Invariant: invariant, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Emit audits one event. It implements trace.Tracer.
func (c *checkerRef) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindTwinCreate:
		// twin-unique: at most one outstanding twin per (node, page) —
		// a second twin inside the same interval would fork the page.
		key := nodePageRef{e.Node, e.Page}
		if c.twins[key] {
			c.violate(e, e.Page, "twin-unique", "twin created while a twin is already outstanding")
			return
		}
		c.twins[key] = true

	case trace.KindDiffCreate:
		// interval-monotone: a node closes intervals in increasing
		// index order — the vector-clock component for the node itself
		// never runs backwards. A new interval raises that component, and
		// its diffs carry the clock it closed with (diff-apply-hb).
		switch clk := c.clk[e.Node]; {
		case e.Aux < clk[e.Node]:
			c.violate(e, e.Page, "interval-monotone",
				"diff for interval %d created after interval %d closed", e.Aux, clk[e.Node])
		case e.Aux > clk[e.Node]:
			clk[e.Node] = e.Aux
			c.intvClk[intervalRef{e.Node, e.Aux}] = slices.Clone(clk)
		}
		// diff-unique: one diff per (node, page, interval).
		dk := diffKeyRef{e.Node, e.Page, e.Aux}
		if c.diffsMade[dk] {
			c.violate(e, e.Page, "diff-unique",
				"diff for interval %d created twice", e.Aux)
		}
		c.diffsMade[dk] = true
		// twin-diff-pairing: a diff encodes the page against its twin,
		// so an unconsumed twin must exist.
		key := nodePageRef{e.Node, e.Page}
		if !c.twins[key] {
			c.violate(e, e.Page, "twin-diff-pairing", "diff created with no outstanding twin")
		}
		delete(c.twins, key)

	case trace.KindDiffApply:
		// diff-apply-hb: a node applies a page's diffs in happens-before
		// order. Diff (x,k) is late when the diffs already applied to the
		// page cover interval k of x: it is one of them (a replay), an
		// older interval of the same writer, or it happens-before one of
		// them — and its bytes would overwrite newer ones.
		key := nodePageRef{e.Node, e.Page}
		pc := c.pageClk[key]
		if pc == nil {
			pc = make([]int64, c.nodes)
			c.pageClk[key] = pc
		}
		if pc[e.Peer] >= e.Arg {
			c.violate(e, e.Page, "diff-apply-hb",
				"diff from node %d interval %d applied after diffs that cover it (node %d through interval %d)",
				e.Peer, e.Arg, e.Peer, pc[e.Peer])
		}
		if vc := c.intvClk[intervalRef{e.Peer, e.Arg}]; vc != nil {
			joinRef(pc, vc)
		} else {
			pc[e.Peer] = max(pc[e.Peer], e.Arg)
		}

	case trace.KindLockAcquire:
		// lock-unique-holder: mutual exclusion in emission order.
		if h, held := c.lockHeld[e.Sync]; held {
			c.violate(e, -1, "lock-unique-holder",
				"lock %d acquired by thread %d while node %d thread %d holds it",
				e.Sync, e.Thread, h.node, h.thread)
		}
		c.lockHeld[e.Sync] = lockHolderRef{e.Node, e.Thread}
		if lc := c.lockClk[e.Sync]; lc != nil {
			joinRef(c.clk[e.Node], lc)
		}

	case trace.KindLockRelease:
		h, held := c.lockHeld[e.Sync]
		if !held {
			c.violate(e, -1, "lock-unique-holder", "lock %d released while not held", e.Sync)
		} else if h != (lockHolderRef{e.Node, e.Thread}) {
			c.violate(e, -1, "lock-unique-holder",
				"lock %d released by node %d thread %d, held by node %d thread %d",
				e.Sync, e.Node, e.Thread, h.node, h.thread)
		}
		delete(c.lockHeld, e.Sync)
		if c.lockClk[e.Sync] == nil {
			c.lockClk[e.Sync] = make([]int64, c.nodes)
		}
		copy(c.lockClk[e.Sync], c.clk[e.Node])

	case trace.KindBarrierArrive:
		if e.Aux == trace.BarrierReduce {
			return // a reduction's arrival: it has no traced release
		}
		if e.Aux == trace.BarrierLocal {
			key := nodePageRef{e.Node, e.Sync}
			lb := c.localBars[key]
			if lb == nil {
				lb = &localBarrierStateRef{}
				c.localBars[key] = lb
			}
			lb.arrived++
			return
		}
		b := c.barriers[e.Sync]
		if b == nil {
			b = &barrierStateRef{}
			c.barriers[e.Sync] = b
		}
		b.arrived++
		if b.arrived > c.nodes*c.threads {
			c.violate(e, -1, "barrier-epoch",
				"barrier %d saw arrival %d, epoch needs %d", e.Sync, b.arrived, c.nodes*c.threads)
		} else if b.arrived == c.nodes*c.threads {
			// Epoch complete: every node now owes one release.
			b.arrived = 0
			b.outstanding += c.nodes
		}

	case trace.KindBarrierRelease:
		if e.Aux == 1 {
			key := nodePageRef{e.Node, e.Sync}
			lb := c.localBars[key]
			if lb == nil || lb.arrived != c.threads {
				got := 0
				if lb != nil {
					got = lb.arrived
				}
				c.violate(e, -1, "barrier-epoch",
					"local barrier %d released after %d arrivals, want %d", e.Sync, got, c.threads)
			}
			if lb != nil {
				lb.arrived = 0
			}
			return
		}
		b := c.barriers[e.Sync]
		if b == nil || b.outstanding == 0 {
			arrived := 0
			if b != nil {
				arrived = b.arrived
			}
			c.violate(e, -1, "barrier-epoch",
				"barrier %d released with no completed epoch (%d/%d arrivals)",
				e.Sync, arrived, c.nodes*c.threads)
			return
		}
		if b.outstanding == c.nodes {
			// The epoch's first release: every node has arrived, and none
			// has left, so the join of all clocks is what it publishes.
			if b.join == nil {
				b.join = make([]int64, c.nodes)
			}
			for _, clk := range c.clk {
				joinRef(b.join, clk)
			}
		}
		joinRef(c.clk[e.Node], b.join)
		b.outstanding--

	case trace.KindModeChange:
		// mode-epoch-monotone: a node applies mode changes for a page in
		// strictly increasing adaptation-epoch order — a replayed or
		// reordered notice would roll a page's protocol backwards.
		key := nodePageRef{e.Node, e.Page}
		if last, ok := c.modeEpoch[key]; ok && e.Aux <= last {
			c.violate(e, e.Page, "mode-epoch-monotone",
				"mode change for epoch %d applied after epoch %d", e.Aux, last)
		} else {
			c.modeEpoch[key] = e.Aux
		}
		// mode-agree: every node that applies epoch E for a page applies
		// the same (mode, owner) declaration — the notices are a
		// broadcast, and a disagreement forks the coherence protocol.
		pe := pageEpochRef{e.Page, e.Aux}
		decl := modeDeclRef{mode: e.Arg, owner: e.Peer}
		if prev, ok := c.modeAt[pe]; !ok {
			c.modeAt[pe] = decl
		} else if prev != decl {
			c.violate(e, e.Page, "mode-agree",
				"epoch %d declares mode %d owner %d here, mode %d owner %d elsewhere",
				e.Aux, decl.mode, decl.owner, prev.mode, prev.owner)
		}
	}
}

// Finish audits end-of-run state: every barrier epoch that gathered
// arrivals must have fully released. Call after the run completes; it
// may append further violations.
func (c *checkerRef) Finish() {
	for id, b := range c.barriers {
		if b.arrived != 0 || b.outstanding != 0 {
			c.violate(trace.Event{Node: -1}, -1, "barrier-epoch",
				"run ended with barrier %d mid-epoch: %d arrivals pending, %d releases owed",
				id, b.arrived, b.outstanding)
		}
	}
	for key, lb := range c.localBars {
		if lb.arrived != 0 {
			c.violate(trace.Event{Node: key.node}, -1, "barrier-epoch",
				"run ended with local barrier %d on node %d mid-epoch: %d arrivals pending",
				key.page, key.node, lb.arrived)
		}
	}
}

// Violations returns the detailed violations recorded so far (capped at
// an internal bound; Count reports the true total).
func (c *checkerRef) Violations() []Violation { return c.violations }

// Count reports the total number of violations, including any beyond
// the detailed cap.
func (c *checkerRef) Count() int { return c.total }

// Err summarizes the violations as an error, nil if there are none.
func (c *checkerRef) Err() error {
	if c.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d protocol invariant violation(s)", c.total)
	show := c.violations
	if len(show) > 5 {
		show = show[:5]
	}
	for _, v := range show {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if c.total > len(show) {
		fmt.Fprintf(&b, "\n  ... and %d more", c.total-len(show))
	}
	return fmt.Errorf("%s", b.String())
}

// Report writes every detailed violation, one per line — the artifact
// CI uploads when a chaos run fails.
func (c *checkerRef) Report(w *strings.Builder) {
	fmt.Fprintf(w, "%d violation(s), %d detailed\n", c.total, len(c.violations))
	for _, v := range c.violations {
		w.WriteString(v.String())
		w.WriteByte('\n')
	}
}

// NewCheckerRef lets the differential tests (package check_test, which
// may run applications) reach the reference.
var NewCheckerRef = newCheckerRef
