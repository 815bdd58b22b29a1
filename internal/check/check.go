// Package check is a protocol invariant checker for the simulated DSM.
//
// The Checker implements trace.Tracer and audits the event stream
// online, holding the protocol to the invariants its correctness
// argument rests on: intervals close in order, twins pair with diffs,
// no diff is created twice, a node applies a page's diffs in
// happens-before order, at most one thread holds a lock, and barrier
// epochs are globally agreed. It is an optional hook in the
// same style as the tracer and metrics registry — wire it into
// Config.Tracer (alone, or fanned out with trace.Tee) and ask it for
// violations after the run; a nil or absent checker costs nothing.
//
// The checker is most valuable under fault injection: the network
// claims exactly-once delivery however it drops, duplicates and delays,
// and these invariants are exactly what breaks first if a duplicated,
// replayed or misordered message slips through — a lock granted twice,
// a diff applied twice or out of order, a barrier releasing early. The chaos suite runs every
// application under every fault schedule with a Checker attached and
// asserts zero violations.
package check

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// maxDetailed bounds the violations kept with full detail; beyond it
// only the count grows (a broken protocol can violate millions of times).
const maxDetailed = 1000

// Violation is one observed invariant breach.
type Violation struct {
	T         sim.Time // virtual time of the offending event
	Node      int32    // node the event was recorded against
	Page      int32    // page involved, -1 when not page-related
	Invariant string   // short invariant name (e.g. "lock-unique-holder")
	Detail    string   // human-readable specifics
}

func (v Violation) String() string {
	if v.Page >= 0 {
		return fmt.Sprintf("T=%v node=%d page=%d [%s] %s", v.T, v.Node, v.Page, v.Invariant, v.Detail)
	}
	return fmt.Sprintf("T=%v node=%d [%s] %s", v.T, v.Node, v.Invariant, v.Detail)
}

// nodePage keys per-(node, page) state.
type nodePage struct {
	node, page int32
}

// pageState is everything the checker knows about one page at one node,
// so a page event costs one map probe: whether a twin is outstanding,
// the intervals the node made a diff of the page in, and the join of the
// clocks of the diffs applied to it.
type pageState struct {
	twin bool
	made []int64 // ascending; a node closes intervals in order, so this appends
	clk  []int64 // nil until a diff is applied
}

// lockHolder records who holds a lock.
type lockHolder struct {
	node, thread int32
}

// lockState is one lock's holder, if held, and the clock its last
// release left (nil before the first), so a lock event costs one probe.
type lockState struct {
	held   bool
	holder lockHolder
	clk    []int64
}

// barrierState tracks one global barrier id across epochs. Epochs of
// the same id are sequential, but releases of epoch k can interleave
// with arrivals of epoch k+1 (a released node races ahead while another
// node's release message is still in flight), so arrivals and
// outstanding releases are tracked independently.
type barrierState struct {
	arrived     int     // arrivals toward the current epoch
	outstanding int     // releases still owed for completed epochs
	join        []int64 // the latest epoch's join of every node's clock
}

// localBarrierState tracks one (node, id) local barrier.
type localBarrierState struct {
	arrived int
}

// Checker audits a protocol event stream. It implements trace.Tracer.
// Like the Recorder, it relies on the simulator's sequential dispatch
// and must not be shared between concurrently running systems.
type Checker struct {
	nodes   int
	threads int // per node

	violations []Violation
	total      int

	pages     map[nodePage]*pageState
	locks     map[int32]*lockState
	barriers  map[int32]*barrierState
	localBars map[nodePage]*localBarrierState // (node, barrier id)

	// Happens-before, from sync events alone (diff-apply-hb): each node's
	// vector clock (its own component is the highest interval seen
	// closing) and per node the clock each interval closed with, indexed
	// by the interval (a node numbers its intervals from 1 up; one that
	// made no diff stays nil). Locks and pages carry their own clocks.
	clk     [][]int64
	intvClk [][][]int64
}

// New returns a Checker for a cluster of the given shape.
func New(nodes, threadsPerNode int) *Checker {
	c := &Checker{
		nodes:     nodes,
		threads:   threadsPerNode,
		pages:     make(map[nodePage]*pageState),
		locks:     make(map[int32]*lockState),
		barriers:  make(map[int32]*barrierState),
		localBars: make(map[nodePage]*localBarrierState),
		clk:       make([][]int64, nodes),
		intvClk:   make([][][]int64, nodes),
	}
	for i := range c.clk {
		c.clk[i] = make([]int64, nodes)
	}
	return c
}

// entry returns m[k], creating it on first use.
func entry[K comparable, V any](m map[K]*V, k K) *V {
	v := m[k]
	if v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// join raises each component of dst to at least src's.
func join(dst, src []int64) {
	for i, v := range src {
		dst[i] = max(dst[i], v)
	}
}

func (c *Checker) violate(e trace.Event, page int32, invariant, format string, args ...any) {
	c.total++
	if len(c.violations) < maxDetailed {
		c.violations = append(c.violations, Violation{
			T: e.T, Node: e.Node, Page: page,
			Invariant: invariant, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Emit audits one event. It implements trace.Tracer.
func (c *Checker) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KindTwinCreate:
		// twin-unique: at most one outstanding twin per (node, page) —
		// a second twin inside the same interval would fork the page.
		ps := entry(c.pages, nodePage{e.Node, e.Page})
		if ps.twin {
			c.violate(e, e.Page, "twin-unique", "twin created while a twin is already outstanding")
			return
		}
		ps.twin = true

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
			iv := c.intvClk[e.Node]
			if n := int(e.Aux) + 1; n > len(iv) {
				iv = append(iv, make([][]int64, n-len(iv))...)
			}
			iv[e.Aux] = slices.Clone(clk)
			c.intvClk[e.Node] = iv
		}
		// diff-unique: one diff per (node, page, interval).
		ps := entry(c.pages, nodePage{e.Node, e.Page})
		if n := len(ps.made); n == 0 || ps.made[n-1] < e.Aux {
			ps.made = append(ps.made, e.Aux)
		} else if i, found := slices.BinarySearch(ps.made, e.Aux); found {
			c.violate(e, e.Page, "diff-unique",
				"diff for interval %d created twice", e.Aux)
		} else {
			ps.made = slices.Insert(ps.made, i, e.Aux)
		}
		// twin-diff-pairing: a diff encodes the page against its twin,
		// so an unconsumed twin must exist.
		if !ps.twin {
			c.violate(e, e.Page, "twin-diff-pairing", "diff created with no outstanding twin")
		}
		ps.twin = false

	case trace.KindDiffApply:
		// diff-apply-hb: a node applies a page's diffs in happens-before
		// order. Diff (x,k) is late when the diffs already applied to the
		// page cover interval k of x: it is one of them (a replay), an
		// older interval of the same writer, or it happens-before one of
		// them — and its bytes would overwrite newer ones.
		ps := entry(c.pages, nodePage{e.Node, e.Page})
		if ps.clk == nil {
			ps.clk = make([]int64, c.nodes)
		}
		pc := ps.clk
		if pc[e.Peer] >= e.Arg {
			c.violate(e, e.Page, "diff-apply-hb",
				"diff from node %d interval %d applied after diffs that cover it (node %d through interval %d)",
				e.Peer, e.Arg, e.Peer, pc[e.Peer])
		}
		if iv := c.intvClk[e.Peer]; e.Arg >= 0 && e.Arg < int64(len(iv)) && iv[e.Arg] != nil {
			join(pc, iv[e.Arg])
		} else {
			pc[e.Peer] = max(pc[e.Peer], e.Arg)
		}

	case trace.KindLockAcquire:
		// lock-unique-holder: mutual exclusion in emission order.
		l := entry(c.locks, e.Sync)
		if l.held {
			c.violate(e, -1, "lock-unique-holder",
				"lock %d acquired by thread %d while node %d thread %d holds it",
				e.Sync, e.Thread, l.holder.node, l.holder.thread)
		}
		l.held, l.holder = true, lockHolder{e.Node, e.Thread}
		if l.clk != nil {
			join(c.clk[e.Node], l.clk)
		}

	case trace.KindLockRelease:
		l := entry(c.locks, e.Sync)
		if !l.held {
			c.violate(e, -1, "lock-unique-holder", "lock %d released while not held", e.Sync)
		} else if l.holder != (lockHolder{e.Node, e.Thread}) {
			c.violate(e, -1, "lock-unique-holder",
				"lock %d released by node %d thread %d, held by node %d thread %d",
				e.Sync, e.Node, e.Thread, l.holder.node, l.holder.thread)
		}
		l.held = false
		if l.clk == nil {
			l.clk = make([]int64, c.nodes)
		}
		copy(l.clk, c.clk[e.Node])

	case trace.KindBarrierArrive:
		if e.Aux == trace.BarrierReduce {
			return // a reduction's arrival: it has no traced release
		}
		if e.Aux == trace.BarrierLocal {
			entry(c.localBars, nodePage{e.Node, e.Sync}).arrived++
			return
		}
		b := entry(c.barriers, e.Sync)
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
			key := nodePage{e.Node, e.Sync}
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
				join(b.join, clk)
			}
		}
		join(c.clk[e.Node], b.join)
		b.outstanding--
	}
}

// Finish audits end-of-run state: every barrier epoch that gathered
// arrivals must have fully released. Call after the run completes; it
// may append further violations, global barriers by id, then local ones
// by (node, id).
func (c *Checker) Finish() {
	var ids []int32
	for id, b := range c.barriers {
		if b.arrived != 0 || b.outstanding != 0 {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		b := c.barriers[id]
		c.violate(trace.Event{Node: -1}, -1, "barrier-epoch",
			"run ended with barrier %d mid-epoch: %d arrivals pending, %d releases owed",
			id, b.arrived, b.outstanding)
	}
	var locals []nodePage
	for key, lb := range c.localBars {
		if lb.arrived != 0 {
			locals = append(locals, key)
		}
	}
	slices.SortFunc(locals, func(a, b nodePage) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.page, b.page))
	})
	for _, key := range locals {
		c.violate(trace.Event{Node: key.node}, -1, "barrier-epoch",
			"run ended with local barrier %d on node %d mid-epoch: %d arrivals pending",
			key.page, key.node, c.localBars[key].arrived)
	}
}

// Violations returns the detailed violations recorded so far (capped at
// an internal bound; Count reports the true total).
func (c *Checker) Violations() []Violation { return c.violations }

// Count reports the total number of violations, including any beyond
// the detailed cap.
func (c *Checker) Count() int { return c.total }

// Err summarizes the violations as an error, nil if there are none.
func (c *Checker) Err() error {
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
func (c *Checker) Report(w *strings.Builder) {
	fmt.Fprintf(w, "%d violation(s), %d detailed\n", c.total, len(c.violations))
	for _, v := range c.violations {
		w.WriteString(v.String())
		w.WriteByte('\n')
	}
}
