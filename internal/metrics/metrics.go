// Package metrics is the metrics layer of the DSM: a deterministic
// registry of counters, gauges, and fixed-bucket log-scale histograms,
// plus the hot-spot attribution behind the per-page and per-lock
// profiler tables.
//
// The registry is a trace.Tracer. Every protocol metric — service
// times, waits and their attribution, message queueing, the fault
// model's and the transport's counters, the backend-invariant sync
// counts — is derived from the event stream in Emit, so both backends
// fill it by teeing it after their tracer, and the trace and the
// metrics cannot disagree. Only the scheduler's Figure-1 decomposition,
// which no event describes, comes from two hooks (Slice and Idle). All
// observations are pointer-free in-place updates — no allocation beyond
// the amortized growth of the attribution maps and timeline bins.
//
// Events reach the registry one at a time in a deterministic order (the
// simulator's, or the windowed engine's demux), so it needs no locking;
// a Registry must not be shared between concurrent systems. The
// serialized Snapshot — and therefore every report built from it — is
// byte-reproducible for a given configuration.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// NumBuckets is the fixed bucket count of every histogram. Bucket i
// holds values v with bits.Len64(v) == i: bucket 0 is exactly zero,
// bucket i ≥ 1 covers [2^(i-1), 2^i). The layout is value-range
// complete for non-negative int64, so observation never branches on
// configuration.
const NumBuckets = 64

// Histogram is a fixed-bucket log2-scale histogram. The struct is
// pointer-free and fixed-size: observing never allocates, and snapshots
// are plain value copies. Sum/Min/Max are exact; quantiles are bucket
// upper bounds (≤ one power of two of error).
type Histogram struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// Observe records v (negative values clamp to zero, preserving Count).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(uint64(v))]++
}

// Mean reports the exact mean of observed values (0 when empty).
func (h *Histogram) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Quantile reports the upper bound of the bucket holding the p-quantile
// (nearest rank), clamped to the exact Max. p is in [0, 1].
func (h *Histogram) Quantile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(float64(h.Count)*p + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			u := bucketUpper(i)
			if u > h.Max {
				u = h.Max
			}
			return u
		}
	}
	return h.Max
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// merge folds other into h.
func (h *Histogram) merge(other *Histogram) {
	if other.Count == 0 {
		return
	}
	if h.Count == 0 {
		*h = *other
		return
	}
	if other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// histJSON is the wire form of a Histogram: the zero buckets are
// omitted, keyed by bucket index. encoding/json sorts map keys, so the
// encoding is deterministic.
type histJSON struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min,omitempty"`
	Max     int64            `json:"max,omitempty"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes the histogram sparsely (only nonzero buckets).
func (h Histogram) MarshalJSON() ([]byte, error) {
	j := histJSON{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
	for i, c := range h.Buckets {
		if c != 0 {
			if j.Buckets == nil {
				j.Buckets = make(map[string]int64)
			}
			j.Buckets[strconv.Itoa(i)] = c
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the sparse form written by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*h = Histogram{Count: j.Count, Sum: j.Sum, Min: j.Min, Max: j.Max}
	for k, c := range j.Buckets {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= NumBuckets {
			return fmt.Errorf("metrics: bad histogram bucket key %q", k)
		}
		h.Buckets[i] = c
	}
	return nil
}

// Counter is a monotonic counter. Counters merge by addition.
type Counter int64

// Add increases the counter by d.
func (c *Counter) Add(d int64) { *c += Counter(d) }

// Gauge is a last-value metric (an instantaneous level, not a total).
// Gauges merge by maximum.
type Gauge int64

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) { *g = Gauge(v) }

// WaitAttr accumulates blocked time attributed to one entity (a page or
// a lock): total wait and the number of waits.
type WaitAttr struct {
	WaitNs int64 `json:"wait_ns"`
	Count  int64 `json:"count"`
}

// TimelineBin is one fixed-interval slice of a node's utilization
// timeline: how the node's virtual time in the bin divided between user
// execution and the three idle classes.
type TimelineBin struct {
	UserNs    int64 `json:"user_ns"`
	FaultNs   int64 `json:"fault_ns"`
	LockNs    int64 `json:"lock_ns"`
	BarrierNs int64 `json:"barrier_ns"`
}

// Timeline components, indexing TimelineBin fields.
const (
	timelineUser = iota
	timelineFault
	timelineLock
	timelineBarrier
)

func (b *TimelineBin) add(comp int, d int64) {
	switch comp {
	case timelineUser:
		b.UserNs += d
	case timelineFault:
		b.FaultNs += d
	case timelineLock:
		b.LockNs += d
	case timelineBarrier:
		b.BarrierNs += d
	}
}

// total reports the bin's attributed virtual time across components.
func (b *TimelineBin) total() int64 {
	return b.UserNs + b.FaultNs + b.LockNs + b.BarrierNs
}

// NodeMetrics are one node's histograms. Every exported field must be a
// Histogram, Counter, or Gauge: the reflection-driven report writers,
// Snapshot.Merge, and EachHistogram walk the fields, so a new metric
// added here automatically reaches every consumer (guarded by
// TestRegistryFieldsReachReportAndMerge).
//
// Time-valued histograms observe nanoseconds of virtual time.
type NodeMetrics struct {
	// The Figure-1 wall-time decomposition, observed from the scheduler
	// hooks: UserBurst records every run burst (dispatch to block,
	// requeue or done), and the three idle histograms record fully-idle
	// processor episodes by block reason. Their sums reconcile exactly with
	// NodeStats.UserTime/FaultWait/LockWait/BarrierWait, so
	// UserBurst.Sum + FaultIdle.Sum + LockIdle.Sum + BarrierIdle.Sum ==
	// NodeStats.Wall().
	UserBurst   Histogram `json:"user_burst"`
	FaultIdle   Histogram `json:"fault_idle"`
	LockIdle    Histogram `json:"lock_idle"`
	BarrierIdle Histogram `json:"barrier_idle"`

	// Protocol service times. FaultService spans a remote fault from
	// fault start to page consistency (the paper's ~1100µs path);
	// FaultThreadWait is each thread's blocked time per fault (joiners
	// included). Lock2Hop/Lock3Hop span request→acquire for remote lock
	// acquires by hop count (937µs / 1382µs uncontended);
	// LockLocalWait is the blocked time of local-queue (Block Same
	// Lock) acquires. BarrierStall spans arrive→release per thread.
	FaultService    Histogram `json:"fault_service"`
	FaultThreadWait Histogram `json:"fault_thread_wait"`
	Lock2Hop        Histogram `json:"lock_2hop"`
	Lock3Hop        Histogram `json:"lock_3hop"`
	LockLocalWait   Histogram `json:"lock_local_wait"`
	BarrierStall    Histogram `json:"barrier_stall"`

	LocalBarrierStall Histogram `json:"local_barrier_stall"`

	// DiffBytes observes the wire size of every diff materialized at
	// this node. RunQueue observes the ready-queue depth at the end of
	// each run burst (scheduler occupancy; unit: threads, not ns).
	DiffBytes Histogram `json:"diff_bytes"`
	RunQueue  Histogram `json:"run_queue"`
}

// NetMetrics are the interconnect histograms, indexed by message class
// in netsim class order (Snapshot.MsgClasses carries the names).
type NetMetrics struct {
	// Latency spans egress departure → handler start (wire plus ingress
	// queueing plus receive overhead). EgressWait and IngressWait are
	// the serialization delays at the sender NIC and receiver ingress.
	Latency     []Histogram `json:"latency"`
	EgressWait  []Histogram `json:"egress_wait"`
	IngressWait []Histogram `json:"ingress_wait"`
}

// Snapshot is the complete serializable state of a Registry. Merge
// folds another snapshot in (histograms add bucket-wise, counters add,
// gauges take the maximum), which the harness uses to aggregate
// per-cell registries of a grid in deterministic job order.
type Snapshot struct {
	Nodes      []NodeMetrics `json:"nodes"`
	Net        NetMetrics    `json:"net"`
	MsgClasses []string      `json:"msg_classes"`

	// PageWait attributes fault-blocked thread time to page ids;
	// LockWait attributes lock-blocked thread time to lock ids. The
	// top-N hot tables are derived from these at report time.
	PageWait map[int32]*WaitAttr `json:"page_wait"`
	LockWait map[int32]*WaitAttr `json:"lock_wait"`

	// Timeline is the per-node utilization timeline: fixed
	// IntervalNs-wide bins from EpochNs, each splitting the node's time
	// into user/fault/lock/barrier. Spans past the bin cap accumulate
	// in TimelineClippedNs instead of growing without bound.
	Timeline          [][]TimelineBin `json:"timeline"`
	IntervalNs        Gauge           `json:"interval_ns"`
	EpochNs           Gauge           `json:"epoch_ns"`
	TimelineClippedNs Counter         `json:"timeline_clipped_ns"`

	// Fault-model accounting. NetDropped counts attempts the network
	// lost and NetDuplicated messages it replicated; Retransmits counts
	// the sender-side re-sends the drops cost and DupSuppressed the
	// replicas receivers discarded. All stay zero on a fault-free run.
	NetDropped    Counter `json:"net_dropped"`
	NetDuplicated Counter `json:"net_duplicated"`
	Retransmits   Counter `json:"retransmits"`
	DupSuppressed Counter `json:"dup_suppressed"`

	// Backend-invariant synchronization counters: one increment per
	// application-level Lock, Unlock, Barrier, LocalBarrier, and Reduce
	// call. These are properties of the program, not of the protocol or
	// the clock, so the deterministic simulator and the real runtime
	// must agree on them exactly — `cvm-metrics diff-backends` and
	// harness.GuardTransportEquivalence gate on that equality. They are
	// run-lifetime counts: the steady-state Reset does not clear them
	// (the real runtime has no cluster-wide reset instant, so a windowed
	// count could never line up across backends).
	LockAcquires         Counter `json:"lock_acquires"`
	LockReleases         Counter `json:"lock_releases"`
	BarrierArrivals      Counter `json:"barrier_arrivals"`
	LocalBarrierArrivals Counter `json:"local_barrier_arrivals"`
	Reductions           Counter `json:"reductions"`
}

// BackendInvariantCounters names the Snapshot counters every backend
// must agree on exactly for the same application and shape (the
// diff-backends equivalence gate). The names are the counters' JSON
// keys, as produced by EachCounter.
func BackendInvariantCounters() []string {
	return []string{
		"lock_acquires",
		"lock_releases",
		"barrier_arrivals",
		"local_barrier_arrivals",
		"reductions",
	}
}

// Merge folds other into s field-by-field via reflection, so metrics
// added to any struct reached from Snapshot merge without new code.
func (s *Snapshot) Merge(other *Snapshot) { mergeInto(s, other) }

// Clone returns a deep copy of s.
func (s *Snapshot) Clone() *Snapshot {
	out := &Snapshot{}
	out.Merge(s)
	return out
}

// Registry collects a run's metrics. Create with NewRegistry, set on
// core.Config.Metrics (or wrap in rt.Metrics); the system configures the
// shape at construction and tees the registry after its tracer. A
// Registry observes one system's single run and must not be shared
// between concurrent systems.
type Registry struct {
	configured bool
	interval   sim.Time
	maxBins    int
	epoch      sim.Time
	snap       Snapshot

	// clippedNs is TimelineClippedNs per node: the scheduler hooks of the
	// windowed engine's per-node workers observe concurrently, and
	// Snapshot sums the nodes.
	clippedNs []int64
}

// DefaultTimelineInterval is the default utilization-timeline bin width.
const DefaultTimelineInterval = 10 * sim.Millisecond

// defaultMaxBins bounds the per-node timeline length (bins past the cap
// accumulate in TimelineClippedNs).
const defaultMaxBins = 4096

// NewRegistry returns an unconfigured registry with the default
// timeline interval.
func NewRegistry() *Registry {
	return &Registry{interval: DefaultTimelineInterval, maxBins: defaultMaxBins}
}

// SetInterval sets the utilization-timeline bin width. It must be
// called before the registry is attached to a system; d must be > 0.
func (r *Registry) SetInterval(d sim.Time) {
	if d <= 0 {
		panic("metrics: SetInterval with non-positive interval")
	}
	if r.configured {
		panic("metrics: SetInterval after Configure")
	}
	r.interval = d
}

// Configure sizes the registry for a cluster. The system calls it once
// at construction; configuring twice panics, catching registries shared
// between systems (their interleaved observations would be
// system-order-dependent).
func (r *Registry) Configure(nodes int, msgClasses []string) {
	if r.configured {
		panic("metrics: Registry attached to a second system")
	}
	r.configured = true
	r.snap.Nodes = make([]NodeMetrics, nodes)
	r.snap.Net = NetMetrics{
		Latency:     make([]Histogram, len(msgClasses)),
		EgressWait:  make([]Histogram, len(msgClasses)),
		IngressWait: make([]Histogram, len(msgClasses)),
	}
	r.snap.MsgClasses = append([]string(nil), msgClasses...)
	r.snap.PageWait = make(map[int32]*WaitAttr)
	r.snap.LockWait = make(map[int32]*WaitAttr)
	r.snap.Timeline = make([][]TimelineBin, nodes)
	r.snap.IntervalNs.Set(int64(r.interval))
	r.clippedNs = make([]int64, nodes)
}

// Emit derives the protocol metrics from one event; it implements
// trace.Tracer. The kinds and fields it reads are documented on the
// trace.Kind constants. Every observation is a commutative update, so
// any order of the same events — the recorder's (T, Seq) order included
// — yields the same snapshot.
func (r *Registry) Emit(e trace.Event) {
	s := &r.snap
	d := int64(e.Dur)
	switch e.Kind {
	case trace.KindFaultResolve:
		s.Nodes[e.Node].FaultService.Observe(d)
	case trace.KindThreadUnblock: // a lock wait is lock.acquire's to observe
		nm := &s.Nodes[e.Node]
		barrier := e.Arg == int64(trace.ReasonBarrier)
		switch {
		case e.Arg == int64(trace.ReasonFault):
			nm.FaultThreadWait.Observe(d)
			attrAdd(s.PageWait, e.Page, d)
		case barrier && e.Aux == trace.BarrierGlobal:
			nm.BarrierStall.Observe(d)
		case barrier && e.Aux == trace.BarrierLocal:
			nm.LocalBarrierStall.Observe(d)
		}
	case trace.KindLockAcquire:
		s.LockAcquires++
		nm := &s.Nodes[e.Node]
		switch e.Aux {
		case 0:
			return // the cached token: no wait
		case 1:
			nm.LockLocalWait.Observe(d)
		case 2:
			nm.Lock2Hop.Observe(d)
		default:
			nm.Lock3Hop.Observe(d)
		}
		attrAdd(s.LockWait, e.Sync, d)
	case trace.KindLockRelease:
		s.LockReleases++
	case trace.KindBarrierArrive:
		switch e.Aux {
		case trace.BarrierGlobal:
			s.BarrierArrivals++
		case trace.BarrierLocal:
			s.LocalBarrierArrivals++
		case trace.BarrierReduce:
			s.Reductions++
		}
	case trace.KindBarrierRelease:
		if e.Thread >= 0 { // a local barrier's last thread, which did not block
			s.Nodes[e.Node].LocalBarrierStall.Observe(d)
		}
	case trace.KindDiffCreate:
		s.Nodes[e.Node].DiffBytes.Observe(e.Arg)
	case trace.KindMsgSend:
		if d >= 0 { // not a duplicate's replica or a retransmission
			s.Net.EgressWait[e.Sync].Observe(d)
		}
	case trace.KindMsgDeliver:
		s.Net.Latency[e.Sync].Observe(d)
		s.Net.IngressWait[e.Sync].Observe(int64(e.Page))
	case trace.KindMsgDrop:
		s.NetDropped++
		if d >= 0 { // not a retransmission
			s.Net.EgressWait[e.Sync].Observe(d)
		}
	case trace.KindMsgDup:
		s.NetDuplicated++
	case trace.KindRetransmit:
		s.Retransmits++
	case trace.KindDupSuppress:
		s.DupSuppressed++
	}
}

func attrAdd(m map[int32]*WaitAttr, k int32, d int64) {
	a := m[k]
	if a == nil {
		a = &WaitAttr{}
		m[k] = a
	}
	a.WaitNs += d
	a.Count++
}

// Slice records one run burst [start, end) of node's processor
// and the run-queue depth behind it: a sim.Hooks observation, because
// no event describes the scheduler's decomposition of a node's time.
func (r *Registry) Slice(node int, start, end sim.Time, queued int) {
	nm := &r.snap.Nodes[node]
	nm.UserBurst.Observe(int64(end - start))
	nm.RunQueue.Observe(int64(queued))
	r.timelineAdd(node, start, end, timelineUser)
}

// Idle records a fully idle episode [start, end) of node's processor,
// whose threads all wait for reason (a trace block reason); like Slice,
// a scheduler hook.
func (r *Registry) Idle(node int, start, end sim.Time, reason sim.Reason) {
	nm := &r.snap.Nodes[node]
	var h *Histogram
	var comp int
	switch reason {
	case trace.ReasonFault:
		h, comp = &nm.FaultIdle, timelineFault
	case trace.ReasonLock:
		h, comp = &nm.LockIdle, timelineLock
	case trace.ReasonBarrier:
		h, comp = &nm.BarrierIdle, timelineBarrier
	default:
		return
	}
	h.Observe(int64(end - start))
	r.timelineAdd(node, start, end, comp)
}

// timelineAdd distributes the span [start, end) of node's time across
// the timeline bins of the given component. Spans before the epoch
// (pre-steady-state remainders) clamp; spans past the bin cap
// accumulate in TimelineClippedNs.
func (r *Registry) timelineAdd(node int, start, end sim.Time, comp int) {
	if start < r.epoch {
		start = r.epoch
	}
	if end <= start {
		return
	}
	bins := r.snap.Timeline[node]
	for start < end {
		i := int((start - r.epoch) / r.interval)
		if i >= r.maxBins {
			r.clippedNs[node] += int64(end - start)
			break
		}
		for len(bins) <= i {
			bins = append(bins, TimelineBin{})
		}
		binEnd := r.epoch + sim.Time(i+1)*r.interval
		if binEnd > end {
			binEnd = end
		}
		bins[i].add(comp, int64(binEnd-start))
		start = binEnd
	}
	r.snap.Timeline[node] = bins
}

// Reset zeroes every metric but the run-lifetime sync counters and
// re-anchors the timeline at epoch. The system calls it from
// MarkSteadyState, alongside the statistics reset, so metrics cover
// exactly the steady-state window NodeStats covers.
func (r *Registry) Reset(epoch sim.Time) {
	r.epoch = epoch
	old := r.snap
	r.snap = Snapshot{}
	r.configured = false
	r.Configure(len(old.Nodes), old.MsgClasses)
	r.snap.EpochNs.Set(int64(epoch))
	r.snap.LockAcquires, r.snap.LockReleases = old.LockAcquires, old.LockReleases
	r.snap.BarrierArrivals, r.snap.LocalBarrierArrivals = old.BarrierArrivals, old.LocalBarrierArrivals
	r.snap.Reductions = old.Reductions
}

// Snapshot returns a deep copy of the collected metrics.
func (r *Registry) Snapshot() *Snapshot {
	out := r.snap.Clone()
	if out.PageWait == nil {
		out.PageWait = make(map[int32]*WaitAttr)
	}
	if out.LockWait == nil {
		out.LockWait = make(map[int32]*WaitAttr)
	}
	for _, c := range r.clippedNs {
		out.TimelineClippedNs.Add(c)
	}
	return out
}

// hotEntry is one row of a derived top-N table.
type hotEntry struct {
	id   int32
	attr WaitAttr
}

// topN derives the N highest-wait entries of an attribution map,
// ordered by total wait descending with ascending-id tiebreak, so the
// table is deterministic for a deterministic run.
func topN(m map[int32]*WaitAttr, n int) []hotEntry {
	entries := make([]hotEntry, 0, len(m))
	for id, a := range m {
		entries = append(entries, hotEntry{id, *a})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].attr.WaitNs != entries[j].attr.WaitNs {
			return entries[i].attr.WaitNs > entries[j].attr.WaitNs
		}
		return entries[i].id < entries[j].id
	})
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	return entries
}
