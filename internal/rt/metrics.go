package rt

import (
	"fmt"
	"sync"
	"time"

	"cvm/internal/metrics"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// Metrics collects a real-execution cluster's wall-clock protocol
// metrics in the simulator's own registry, fed the same way: the run
// tees the registry after its tracer, so the events rt emits are what
// the registry derives its metrics from, through the one function both
// backends share, and the reporter, merge, and compare tooling work
// unchanged on real runs. Histogram values are nanoseconds of wall time
// (virtual nanoseconds in the simulator's reports) — time-typed metrics
// are therefore comparable only side by side, while the
// backend-invariant counters (see metrics.BackendInvariantCounters) must
// match the simulator exactly. The scheduler decomposition (user_burst,
// the *_idle histograms, run_queue, the timeline) stays empty: no
// scheduler here defines it.
//
// A Metrics serves one run; attaching it to a second panics. In a
// multi-process cluster each process observes only its own node, and
// the coordinator merges the per-node snapshots in node order.
type Metrics struct {
	mu  sync.Mutex // guards reg: the run's lockedTracer emits under it
	reg *metrics.Registry
}

// NewMetrics returns an empty collector; attach it via Config.Metrics.
func NewMetrics() *Metrics { return &Metrics{reg: metrics.NewRegistry()} }

// Snapshot returns the registry's snapshot: Nodes is sized for the
// whole cluster (a member process's snapshot has only its own node
// populated), and MsgClasses carries the transport class names so
// network-shaped fields mean the same thing as the simulator's. Safe to
// call concurrently with the run — the debug server scrapes mid-run.
func (m *Metrics) Snapshot() *metrics.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Snapshot()
}

// lockedTracer serializes Emit calls: trace.Recorder and the metrics
// registry are not thread-safe, and a real cluster's workers and
// dispatcher emit concurrently. With metrics on, mu is the Metrics'
// own, so a snapshot never reads a half-observed event.
type lockedTracer struct {
	mu *sync.Mutex
	tr trace.Tracer
}

// newLockedTracer tees met's registry, configured for the cluster, after
// tr; nil when both are off.
func newLockedTracer(tr trace.Tracer, met *Metrics, nodes int) *lockedTracer {
	if met == nil {
		if tr == nil {
			return nil
		}
		return &lockedTracer{mu: new(sync.Mutex), tr: tr}
	}
	classes := make([]string, 0, transport.NumClasses)
	for _, cl := range transport.Classes() {
		classes = append(classes, cl.String())
	}
	met.mu.Lock()
	defer met.mu.Unlock()
	met.reg.Configure(nodes, classes) // panics on a second run
	return &lockedTracer{mu: &met.mu, tr: trace.Tee(tr, met.reg)}
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
