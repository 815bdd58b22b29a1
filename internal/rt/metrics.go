package rt

import (
	"fmt"
	"sync"
	"time"

	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// Metrics collects a real-execution cluster's wall-clock protocol
// metrics in the simulator's own registry, so a metric the registry
// gains reaches both backends, and the reporter, merge, and compare
// tooling work unchanged on real runs. Histogram values are nanoseconds
// of wall time (virtual nanoseconds in the simulator's reports) —
// time-typed metrics are therefore comparable only side by side, while
// the backend-invariant counters (see metrics.BackendInvariantCounters)
// must match the simulator exactly.
//
// The registry itself takes no locks (the simulator observes one entity
// at a time), but here workers on different nodes and the dispatcher
// observe in parallel. Everything the registry keeps for an observation
// is per node, so one mutex per node serializes them. A Metrics is
// attached to one rt.Config; in a multi-process cluster each process
// observes only its own node, and the coordinator merges the per-node
// snapshots in node order.
type Metrics struct {
	mu    sync.Mutex        // guards reg and locks themselves
	reg   *metrics.Registry // nil until configure
	locks []sync.Mutex      // locks[i] guards node i's share of reg
}

// NewMetrics returns an empty collector; attach it via Config.Metrics.
func NewMetrics() *Metrics { return &Metrics{} }

// configure sizes the collector for the cluster. Reattaching the same
// collector to a differently-shaped cluster panics; reattaching to the
// same shape accumulates (a multi-run aggregate is meaningless for the
// equivalence gate, so callers use a fresh Metrics per run).
func (m *Metrics) configure(nodes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg == nil {
		classes := make([]string, 0, transport.NumClasses)
		for _, cl := range transport.Classes() {
			classes = append(classes, cl.String())
		}
		m.reg = metrics.NewRegistry()
		m.reg.Configure(nodes, classes)
		m.locks = make([]sync.Mutex, nodes)
		return
	}
	if len(m.locks) != nodes {
		panic(fmt.Sprintf("rt: Metrics attached to a %d-node cluster after a %d-node one",
			nodes, len(m.locks)))
	}
}

// waited records the end of one wait of d: a remote page fetch as fault
// service time (request to install) and the faulting thread's blocked
// time, attributed to the page; a lock acquire as request-to-grant wait,
// attributed to the lock and classified by whether the manager was local
// (no wire messages) or remote (the runtime's centralized managers make
// every remote acquire a 2-hop exchange; Lock3Hop stays empty by
// construction); a barrier or local barrier as the thread's
// arrive-to-release stall. Reductions and flushes have no histogram.
func (m *Metrics) waited(node int, kind waitKind, id int32, d sim.Time, local bool) {
	m.locks[node].Lock()
	defer m.locks[node].Unlock()
	nm := m.reg.Node(node)
	switch kind {
	case waitFault:
		nm.FaultService.Observe(int64(d))
		nm.FaultThreadWait.Observe(int64(d))
		m.reg.PageFaultWait(node, id, d)
	case waitLock:
		if local {
			nm.LockLocalWait.Observe(int64(d))
		} else {
			nm.Lock2Hop.Observe(int64(d))
		}
		m.reg.LockAcquireWait(node, id, d)
		m.reg.CountLockAcquire(node)
	case waitBarrier:
		nm.BarrierStall.Observe(int64(d))
	case waitLocalBarrier:
		nm.LocalBarrierStall.Observe(int64(d))
	}
}

// count bumps one of the registry's per-node counters — one application
// call to Unlock, Barrier, LocalBarrier or Reduce — named by method
// expression, e.g. (*metrics.Registry).CountReduce.
func (m *Metrics) count(node int, counter func(*metrics.Registry, int)) {
	m.locks[node].Lock()
	counter(m.reg, node)
	m.locks[node].Unlock()
}

// observeDiff records the wire size of one diff shipped to a home.
func (m *Metrics) observeDiff(node int, bytes int64) {
	m.locks[node].Lock()
	m.reg.Node(node).DiffBytes.Observe(bytes)
	m.locks[node].Unlock()
}

// Snapshot returns the registry's snapshot: Nodes is sized for the
// whole cluster (a member process's snapshot has only its own node
// populated), and MsgClasses carries the transport class names so
// network-shaped fields mean the same thing as the simulator's. Safe to
// call concurrently with observation — the debug server scrapes
// mid-run — because it holds every node's lock while the registry
// copies itself.
func (m *Metrics) Snapshot() *metrics.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.reg == nil {
		return metrics.NewRegistry().Snapshot()
	}
	for i := range m.locks {
		m.locks[i].Lock()
	}
	snap := m.reg.Snapshot()
	for i := range m.locks {
		m.locks[i].Unlock()
	}
	return snap
}

// lockedTracer serializes Emit calls: trace.Recorder is not
// thread-safe, and a real cluster's workers and dispatcher emit
// concurrently.
type lockedTracer struct {
	mu sync.Mutex
	tr trace.Tracer
}

func (lt *lockedTracer) emit(e trace.Event) {
	lt.mu.Lock()
	lt.tr.Emit(e)
	lt.mu.Unlock()
}

// NodeStatus is one node's live introspection snapshot, served by the
// cvm-node debug endpoint as /status. Threads[i] is what wait recorded
// for local thread i — "running", or what it is blocked on, where the
// reply comes from and for how long: "fault-wait page 17 @n2 12.04ms",
// "lock-wait lock 5 @n1 340.2ms", "barrier-wait id 3 2.117ms".
type NodeStatus struct {
	Node    int          `json:"node"`
	Epoch   uint64       `json:"epoch"`
	Twins   int          `json:"twins"` // twin buffers the node owns: its most pages dirty at once
	Threads []string     `json:"threads"`
	Failure string       `json:"failure,omitempty"`
	Peers   []PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is the sent-side traffic toward one peer, with its
// transport address — nonzero growth over successive scrapes is the
// liveness signal.
type PeerStatus struct {
	Peer  int    `json:"peer"`
	Addr  string `json:"addr"`
	Msgs  int64  `json:"msgs"`
	Bytes int64  `json:"bytes"`
}

// Status reports the live state of every node running in this process:
// one entry per node for RunLoopback, one for RunNode, empty before
// the run starts. Safe to call concurrently with the run.
func (c *Cluster) Status() []NodeStatus {
	c.runMu.Lock()
	nodes := append([]*rnode(nil), c.rnodes...)
	c.runMu.Unlock()
	out := make([]NodeStatus, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.status())
	}
	return out
}

func (n *rnode) status() NodeStatus {
	st := NodeStatus{Node: n.self, Epoch: n.epoch.Load(), Twins: int(n.twinsMade.Load())}
	now := n.clock.Now()
	n.wmu.Lock()
	for _, wt := range n.waits {
		k := &waitKinds[wt.kind]
		s := k.name
		if k.noun != "" {
			s += fmt.Sprintf(" %s %d", k.noun, wt.id)
			if wt.peer >= 0 {
				s += fmt.Sprintf(" @n%d", wt.peer)
			}
			s += " " + time.Duration(now-wt.since).Round(time.Microsecond).String()
		}
		st.Threads = append(st.Threads, s)
	}
	n.wmu.Unlock()
	if err := n.failure(); err != nil {
		st.Failure = err.Error()
	}
	stats := n.conn.Stats()
	for j := range stats.Peers {
		if j == n.self {
			continue
		}
		p := &stats.Peers[j]
		st.Peers = append(st.Peers, PeerStatus{
			Peer:  j,
			Addr:  n.conn.PeerAddr(transport.NodeID(j)),
			Msgs:  p.TotalMsgs(),
			Bytes: p.TotalBytes(),
		})
	}
	return st
}

// RealStats converts a run's wall time and transport totals into a
// report's Real section (shared by cvm-run's loopback path and
// cvm-node's cluster path).
func RealStats(backend string, nodes int, elapsed time.Duration, st transport.Stats) *metrics.RealStats {
	re := &metrics.RealStats{
		Backend:   backend,
		Nodes:     nodes,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	for _, cl := range transport.Classes() {
		re.Classes = append(re.Classes, metrics.RealClassStat{
			Class: cl.String(), Msgs: st.Msgs[cl], Bytes: st.Bytes[cl],
		})
	}
	for j := range st.Peers {
		p := &st.Peers[j]
		if p.TotalMsgs() == 0 {
			continue
		}
		re.Peers = append(re.Peers, metrics.RealPeerStat{
			Peer: j, Msgs: p.TotalMsgs(), Bytes: p.TotalBytes(),
		})
	}
	return re
}
