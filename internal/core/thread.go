package core

import (
	"encoding/binary"
	"math"

	"cvm/internal/memsim"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// Thread is one application thread of the DSM: the handle through which
// application code accesses shared memory and synchronizes. Threads are
// created by System.Start; all methods must be called from the thread's
// own function.
type Thread struct {
	task *sim.Task
	node *node
	sys  *System

	gid  int // global thread id: node*threadsPerNode + lid
	lid  int // local thread id within the node
	main func(*Thread)
}

// RunTask implements sim.Runner: the task body of an application thread.
func (t *Thread) RunTask(*sim.Task) { t.main(t) }

// GlobalID reports the thread's global index in [0, Threads()).
// Threads are numbered contiguously per node, so consecutive IDs are
// co-located — the layout the paper's applications assume.
func (t *Thread) GlobalID() int { return t.gid }

// LocalID reports the thread's index within its node.
func (t *Thread) LocalID() int { return t.lid }

// NodeID reports the node the thread runs on.
func (t *Thread) NodeID() int { return t.node.id }

// Threads reports the total number of application threads.
func (t *Thread) Threads() int { return t.sys.cfg.Nodes * t.sys.cfg.ThreadsPerNode }

// Nodes reports the number of nodes.
func (t *Thread) Nodes() int { return t.sys.cfg.Nodes }

// LocalThreads reports the number of threads per node.
func (t *Thread) LocalThreads() int { return t.sys.cfg.ThreadsPerNode }

// Now reports the thread's current virtual time.
func (t *Thread) Now() sim.Time { return t.task.Now() }

// Compute charges d of pure computation (work not expressed as shared
// accesses) to the thread.
func (t *Thread) Compute(d sim.Time) { t.task.Advance(d) }

// Yield requests an explicit thread switch (a CVM system call), moving
// the thread to the back of its node's run queue.
func (t *Thread) Yield() { t.task.Yield() }

// block suspends the thread with reason (the protocol's Block event),
// bracketing the wait with block/unblock trace events when tracing is
// enabled. All protocol block sites go through this helper so traces
// capture every wait with its Figure-1 attribution. The unblock event
// also says what the thread waited for (on's Page, Sync and Aux) and,
// in Dur, for how long since the wait began at since.
func (t *Thread) block(reason sim.Reason, since sim.Time, on trace.Event) {
	tr := t.sys.tracer
	if tr == nil {
		t.task.Block(reason)
		return
	}
	tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindThreadBlock,
		Node: int32(t.node.id), Thread: int32(t.gid), Arg: int64(reason)})
	t.task.Block(reason)
	on.T, on.Kind, on.Arg = t.task.Now(), trace.KindThreadUnblock, int64(reason)
	on.Node, on.Thread, on.Dur = int32(t.node.id), int32(t.gid), on.T-since
	tr.Emit(on)
}

// blockFault blocks the thread on the fetch of page p.
func (t *Thread) blockFault(p *page) {
	t.block(trace.ReasonFault, t.task.Now(), trace.Event{Page: int32(p.id)})
}

// locate resolves a shared address to the node's page view.
func (t *Thread) locate(a Addr) (*page, int) {
	pg := PageID(a >> t.sys.pageShift)
	off := int(a & (Addr(t.sys.cfg.PageSize) - 1))
	return t.node.pageAt(pg), off
}

// pageVA is the simulated virtual address of a page, fed to the memory
// hierarchy model. Shared pages live at the bottom of the address space
// on every node.
func (t *Thread) pageVA(pg PageID) uint64 {
	return uint64(pg) << t.sys.pageShift
}

// charge runs one data access through the node's cache and TLB simulator,
// charging the cost.
func (t *Thread) charge(a Addr) { t.task.Advance(t.node.mem.Access(uint64(a))) }

// ReadF64 reads a float64 from shared memory.
func (t *Thread) ReadF64(a Addr) float64 {
	return math.Float64frombits(t.read8(a))
}

// WriteF64 writes a float64 to shared memory.
func (t *Thread) WriteF64(a Addr, v float64) {
	t.write8(a, math.Float64bits(v))
}

// ReadI64 reads an int64 from shared memory.
func (t *Thread) ReadI64(a Addr) int64 { return int64(t.read8(a)) }

// WriteI64 writes an int64 to shared memory.
func (t *Thread) WriteI64(a Addr, v int64) { t.write8(a, uint64(v)) }

// read8/write8 perform the data access immediately after ensureAccess
// returns, before charging the memory-system cost: charging can yield to
// the engine, and a message handler running during the yield may downgrade
// the page (consume its twin to serve a diff, or invalidate it on a write
// notice). In the real CVM the access and the protection check are atomic
// — the hardware faults mid-instruction — so the simulation must not allow
// a handler between check and access either.
func (t *Thread) read8(a Addr) uint64 {
	p, off := t.locate(a)
	t.ensureAccess(p, false)
	var v uint64
	if p.data != nil {
		v = binary.LittleEndian.Uint64(p.data[off:])
	}
	t.charge(a)
	return v
}

func (t *Thread) write8(a Addr, v uint64) {
	p, off := t.locate(a)
	for {
		t.ensureAccess(p, true)
		if p.state == PageReadWrite {
			binary.LittleEndian.PutUint64(p.data[off:], v)
			break
		}
		// A handler downgraded the page while ensureAccess was charging
		// fault costs; run the fault state machine again.
	}
	t.charge(a)
}

// TouchPrivate models an access to thread-private memory (stack or heap):
// it exercises the node's cache and TLB without touching shared state.
// idx is an arbitrary index into the thread's private region: 256 MB a
// thread from sharedLimit, wrapping below memsim.MaxAddr.
func (t *Thread) TouchPrivate(idx int) {
	va := sharedLimit + (uint64(t.gid)<<28+uint64(idx)*8)%(memsim.MaxAddr-sharedLimit)
	t.task.Advance(t.node.mem.Access(va))
}
