// Package cvm is a Go implementation of CVM, the multi-threaded software
// distributed shared memory system of Thitikamol & Keleher, "Multi-threading
// and Remote Latency in Software DSMs" (ICDCS 1997).
//
// CVM emulates shared memory over message passing using a multiple-writer
// lazy release consistency protocol: shared pages are replicated per node,
// writes are collected against twins and shipped as diffs, and consistency
// information piggybacks on lock and barrier messages. The paper's
// contribution — reproduced here — is per-node multi-threading: several
// application threads share each node, and the runtime switches threads
// whenever one blocks on a remote page fetch or lock acquire, hiding remote
// latency behind useful local work.
//
// Because Go's runtime owns the address space (no user-level SIGSEGV
// paging), the cluster is simulated: a deterministic discrete-event engine
// runs one green thread at a time in virtual-time order, with network and
// memory-hierarchy costs calibrated to the paper's measured numbers
// (937 µs two-hop locks, ~1100 µs remote page faults, 8 µs thread switches).
// Every protocol action — twins, diffs, write notices, local lock queues,
// per-node barrier aggregation — is implemented in full; see DESIGN.md.
//
// # Quick start
//
//	cluster, err := cvm.New(cvm.DefaultConfig(4, 2)) // 4 nodes × 2 threads
//	if err != nil { ... }
//	data := cluster.MustAllocF64("data", 1<<16)
//	stats, err := cluster.Run(func(w cvm.Worker) {
//	    chunk := data.Len / w.Threads()
//	    for i := w.GlobalID() * chunk; i < (w.GlobalID()+1)*chunk; i++ {
//	        data.Set(w, i, float64(i))
//	    }
//	    w.Barrier(0)
//	})
package cvm

import (
	"fmt"

	"cvm/internal/core"
	"cvm/internal/memsim"
	"cvm/internal/metrics"
	"cvm/internal/netsim"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// Worker is one application thread (the paper's unit of multi-threading):
// the handle through which application code accesses shared memory and
// synchronizes. Two engines implement it — the simulated cluster behind
// Cluster.Run (*core.Thread, deterministic virtual time) and the
// real-execution runtime behind internal/rt (OS threads over a loopback
// or TCP transport, wall time). Application code written against Worker
// runs unchanged on both; only timing-dependent observations (Now,
// Stats) differ between the engines.
//
// On the simulated engine every method deterministically advances
// virtual time; on the real engine the modelling-only methods (Compute,
// Yield, TouchPrivate) are free, since real hardware charges real costs
// on its own.
type Worker interface {
	// GlobalID reports the thread's global index in [0, Threads()).
	// Threads are numbered contiguously per node, so consecutive IDs are
	// co-located — the layout the paper's applications assume.
	GlobalID() int
	// LocalID reports the thread's index within its node.
	LocalID() int
	// NodeID reports the node the thread runs on.
	NodeID() int
	// Threads reports the total number of application threads.
	Threads() int
	// Nodes reports the number of nodes.
	Nodes() int
	// LocalThreads reports the number of threads per node.
	LocalThreads() int
	// Now reports the thread's current time: virtual on the simulator,
	// monotonic wall time since run start on real engines.
	Now() Time
	// Compute charges d of pure computation to the thread (simulation
	// modelling; free on real engines).
	Compute(d Time)
	// Yield requests an explicit thread switch (a CVM system call).
	Yield()
	// TouchPrivate models an access to thread-private memory (free on
	// real engines).
	TouchPrivate(idx int)
	// MarkSteadyState zeroes statistics counters after initialization,
	// mirroring the paper's exclusion of startup from measurements.
	MarkSteadyState()

	// Barrier blocks until every thread has arrived at barrier id.
	Barrier(id int)
	// LocalBarrier blocks until every co-located thread has arrived.
	LocalBarrier(id int)
	// Lock acquires the global lock id; Unlock releases it.
	Lock(id int)
	Unlock(id int)
	// ReduceF64 combines v across all threads with op and returns the
	// result to every thread. Every thread must call it, with the same id
	// and op. It synchronizes the threads and moves the values, nothing
	// else: it is not a memory-consistency point in simulation (no
	// interval closes, no write notice travels) and happens to be one on
	// the real runtime (which flushes and invalidates around it), so a
	// program must not rely on it to make shared writes visible — that
	// is Barrier's and Lock/Unlock's contract. The floating-point
	// combination order is fixed per backend, not across backends.
	ReduceF64(id int, v float64, op ReduceOp) float64

	// ReadF64/WriteF64 and ReadI64/WriteI64 access one shared value.
	ReadF64(a Addr) float64
	WriteF64(a Addr, v float64)
	ReadI64(a Addr) int64
	WriteI64(a Addr, v int64)
	// The range forms batch the access check per page touched.
	ReadRangeF64(a Addr, dst []float64)
	WriteRangeF64(a Addr, src []float64)
	FillF64(a Addr, n int, v float64)
	ReadRangeI64(a Addr, dst []int64)
	WriteRangeI64(a Addr, src []int64)
	FillI64(a Addr, n int, v int64)
	// AddF64 is a fused read-modify-write of one float64.
	AddF64(a Addr, v float64)
}

// Allocator is the pre-run surface applications allocate their shared
// segments against. Both cluster kinds implement it — the simulated
// *Cluster here and the real-execution runtime's cluster — so an
// application's setup code is engine-independent.
type Allocator interface {
	// Alloc reserves a page-aligned shared segment.
	Alloc(name string, size int) (Addr, error)
	// MustAlloc is Alloc, panicking on error.
	MustAlloc(name string, size int) Addr
	// PageSize reports the coherence unit in bytes.
	PageSize() int
	// Nodes reports the cluster's node count.
	Nodes() int
	// ThreadsPerNode reports the application threads per node.
	ThreadsPerNode() int
}

// Re-exported core types.
type (
	// Addr is a byte offset in the shared address space.
	Addr = core.Addr
	// Config parameterizes the simulated cluster.
	Config = core.Config
	// Stats aggregates a run's statistics.
	Stats = core.RunStats
	// NodeStats are per-node DSM counters and the Figure-1 time breakdown.
	NodeStats = core.NodeStats
	// ReduceOp selects a reduction operator.
	ReduceOp = core.ReduceOp
	// Protocol selects the coherence protocol.
	Protocol = core.Protocol
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Tracer receives protocol events when set on Config.Tracer; see
	// internal/trace for the event model, recorder, and exporters.
	Tracer = trace.Tracer
	// NetParams are interconnect cost parameters.
	NetParams = netsim.Params
	// MemParams are cache/TLB geometry parameters.
	MemParams = memsim.Params
	// Metrics is the virtual-time metrics registry; create one with
	// NewMetrics, set it on Config.Metrics, and read the collected
	// histograms and hot-spot attribution with its Snapshot method after
	// the run. See internal/metrics for the report and compare tooling.
	Metrics = metrics.Registry
	// MetricsSnapshot is the serializable state of a Metrics registry.
	MetricsSnapshot = metrics.Snapshot
	// MetricsReport is a run profile derived from a snapshot (hot-page
	// and hot-lock tables included), with JSON/CSV/text writers.
	MetricsReport = metrics.Report
	// FaultPlan configures deterministic fault injection (network
	// drop/duplication/reordering/jitter plus node pause and slowdown
	// windows); set on Config.Faults. Parse the -faults flag syntax with
	// ParseFaults. See internal/core's faultplan.go for the model.
	FaultPlan = core.FaultPlan
	// NodePause suspends one node's compute for a virtual-time window.
	NodePause = core.NodePause
	// NodeSlowdown dilates one node's compute by a factor for a window.
	NodeSlowdown = core.NodeSlowdown
	// FaultParams is the network-level fault model (per-class
	// probabilities, jitter and retransmission timing, keyed by a
	// deterministic seed).
	FaultParams = netsim.FaultParams
)

// ErrTransport is wrapped by the error a run returns when fault
// injection drops every attempt at a message (the network was
// effectively dead).
var ErrTransport = core.ErrTransport

// ParseFaults builds a FaultPlan from the compact comma-separated syntax
// the -faults command-line flag accepts, e.g.
// "drop=0.01,dup=0.001,jitter=500us". seed keys the fault PRNG; the same
// (spec, seed) pair reproduces the same fault schedule bit for bit.
func ParseFaults(spec string, seed uint64) (*FaultPlan, error) {
	return core.ParseFaultPlan(spec, seed)
}

// Re-exported constants.
const (
	ReduceSum = core.ReduceSum
	ReduceMax = core.ReduceMax
	ReduceMin = core.ReduceMin

	// ProtocolLRC is the paper's lazy multi-writer protocol (default).
	ProtocolLRC = core.ProtocolLRC
	// ProtocolSW is the single-writer write-invalidate baseline.
	ProtocolSW = core.ProtocolSW

	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultConfig returns the paper's calibrated cluster configuration for
// the given shape.
func DefaultConfig(nodes, threadsPerNode int) Config {
	return core.DefaultConfig(nodes, threadsPerNode)
}

// NewMetrics returns a metrics registry ready to set on Config.Metrics.
// One registry serves exactly one cluster.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// Cluster is a simulated CVM cluster ready to allocate shared memory and
// run an application.
type Cluster struct {
	sys *core.System
}

// New builds a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{sys: sys}, nil
}

// System exposes the underlying DSM system for tools and tests.
func (c *Cluster) System() *core.System { return c.sys }

// Alloc reserves a page-aligned shared segment.
func (c *Cluster) Alloc(name string, size int) (Addr, error) {
	return c.sys.Alloc(name, size)
}

// MustAlloc is Alloc, panicking on error. Allocation errors are
// programming errors (allocating after Run, or a non-positive size), so
// examples and applications use this form.
func (c *Cluster) MustAlloc(name string, size int) Addr {
	a, err := c.sys.Alloc(name, size)
	if err != nil {
		panic(fmt.Sprintf("cvm: %v", err))
	}
	return a
}

// PageSize reports the coherence unit in bytes (Allocator).
func (c *Cluster) PageSize() int { return c.sys.Config().PageSize }

// Nodes reports the cluster's node count (Allocator).
func (c *Cluster) Nodes() int { return c.sys.Config().Nodes }

// ThreadsPerNode reports the application threads per node (Allocator).
func (c *Cluster) ThreadsPerNode() int { return c.sys.Config().ThreadsPerNode }

// Run spawns Nodes × ThreadsPerNode workers executing main, runs the
// simulation to completion, and returns the collected statistics.
func (c *Cluster) Run(main func(Worker)) (Stats, error) {
	if err := c.sys.Start(func(t *core.Thread) { main(t) }); err != nil {
		return Stats{}, err
	}
	if err := c.sys.Run(); err != nil {
		return Stats{}, err
	}
	return c.sys.Stats(), nil
}
