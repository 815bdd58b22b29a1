package rt

import (
	"encoding/binary"
	"math"
	"runtime"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/sim"
)

// Worker is the real-execution implementation of cvm.Worker: one
// application thread on one node, running while it holds the node's run
// token. The simulator-modelling methods (Compute, Phase, TouchPrivate)
// are no-ops — real hardware charges real costs on its own.
type Worker struct {
	n   *rnode
	gid int
	lid int
}

var _ cvm.Worker = (*Worker)(nil)

// GlobalID implements cvm.Worker.
func (w *Worker) GlobalID() int { return w.gid }

// LocalID implements cvm.Worker.
func (w *Worker) LocalID() int { return w.lid }

// NodeID implements cvm.Worker.
func (w *Worker) NodeID() int { return w.n.self }

// Threads implements cvm.Worker.
func (w *Worker) Threads() int { return w.n.nodes * w.n.threads }

// Nodes implements cvm.Worker.
func (w *Worker) Nodes() int { return w.n.nodes }

// LocalThreads implements cvm.Worker.
func (w *Worker) LocalThreads() int { return w.n.threads }

// Now reports monotonic wall time since the node started.
func (w *Worker) Now() sim.Time { return w.n.clock.Now() }

// Compute implements cvm.Worker; the work modelled in the simulator is
// real work here, so there is nothing to charge.
func (w *Worker) Compute(sim.Time) {}

// Phase implements cvm.Worker (instruction-locality modelling; no-op).
func (w *Worker) Phase(int) {}

// TouchPrivate implements cvm.Worker (memory-hierarchy modelling; no-op).
func (w *Worker) TouchPrivate(int) {}

// MarkSteadyState implements cvm.Worker. The real runtime keeps only
// transport totals, which the callers snapshot themselves, so there is
// nothing to reset.
func (w *Worker) MarkSteadyState() {}

// Yield bounces the run token so a co-located thread can run.
func (w *Worker) Yield() {
	w.n.tok.Unlock()
	runtime.Gosched()
	w.n.tok.Lock()
}

// Barrier implements cvm.Worker.
func (w *Worker) Barrier(id int) { w.n.meetUp(w, meetKey{waitBarrier, uint32(id)}, 0, 0) }

// LocalBarrier implements cvm.Worker.
func (w *Worker) LocalBarrier(id int) { w.n.meetUp(w, meetKey{waitLocalBarrier, uint32(id)}, 0, 0) }

// Lock implements cvm.Worker.
func (w *Worker) Lock(id int) { w.n.lock(w, id) }

// Unlock implements cvm.Worker.
func (w *Worker) Unlock(id int) { w.n.unlock(w, id) }

// ReduceF64 implements cvm.Worker.
func (w *Worker) ReduceF64(id int, v float64, op core.ReduceOp) float64 {
	return w.n.meetUp(w, meetKey{waitReduce, uint32(id)}, v, op)
}

// read8 loads the 8-byte word at a: directly from the master copy when
// this node is the home, through the cache otherwise.
func (w *Worker) read8(a core.Addr) uint64 {
	n := w.n
	ps := core.Addr(n.c.cfg.PageSize)
	pg, off := core.PageID(a/ps), int(a%ps)
	if n.home(pg) == n.self {
		n.hmu.Lock()
		v := binary.LittleEndian.Uint64(n.masterPage(pg)[off:])
		n.hmu.Unlock()
		return v
	}
	return binary.LittleEndian.Uint64(n.fetchPage(w, pg).data[off:])
}

// write8 stores the 8-byte word at a. Self-homed pages are written at
// the master (immediately visible — harmless for data-race-free
// programs); remote pages get a twin on first write and join the dirty
// list for the next release.
func (w *Worker) write8(a core.Addr, v uint64) {
	n := w.n
	ps := core.Addr(n.c.cfg.PageSize)
	pg, off := core.PageID(a/ps), int(a%ps)
	if n.home(pg) == n.self {
		n.hmu.Lock()
		binary.LittleEndian.PutUint64(n.masterPage(pg)[off:], v)
		n.hmu.Unlock()
		return
	}
	p := n.fetchPage(w, pg)
	if p.twin == nil {
		p.twin = append([]byte(nil), p.data...)
		n.dirty = append(n.dirty, pg)
	}
	binary.LittleEndian.PutUint64(p.data[off:], v)
}

// ReadF64 implements cvm.Worker.
func (w *Worker) ReadF64(a core.Addr) float64 { return math.Float64frombits(w.read8(a)) }

// WriteF64 implements cvm.Worker.
func (w *Worker) WriteF64(a core.Addr, v float64) { w.write8(a, math.Float64bits(v)) }

// ReadI64 implements cvm.Worker.
func (w *Worker) ReadI64(a core.Addr) int64 { return int64(w.read8(a)) }

// WriteI64 implements cvm.Worker.
func (w *Worker) WriteI64(a core.Addr, v int64) { w.write8(a, uint64(v)) }

// AddF64 implements cvm.Worker.
func (w *Worker) AddF64(a core.Addr, v float64) { w.WriteF64(a, w.ReadF64(a)+v) }

// ReadRangeF64 implements cvm.Worker.
func (w *Worker) ReadRangeF64(a core.Addr, dst []float64) {
	for i := range dst {
		dst[i] = w.ReadF64(a + core.Addr(8*i))
	}
}

// WriteRangeF64 implements cvm.Worker.
func (w *Worker) WriteRangeF64(a core.Addr, src []float64) {
	for i, v := range src {
		w.WriteF64(a+core.Addr(8*i), v)
	}
}

// FillF64 implements cvm.Worker.
func (w *Worker) FillF64(a core.Addr, n int, v float64) {
	for i := 0; i < n; i++ {
		w.WriteF64(a+core.Addr(8*i), v)
	}
}

// ReadRangeI64 implements cvm.Worker.
func (w *Worker) ReadRangeI64(a core.Addr, dst []int64) {
	for i := range dst {
		dst[i] = w.ReadI64(a + core.Addr(8*i))
	}
}

// WriteRangeI64 implements cvm.Worker.
func (w *Worker) WriteRangeI64(a core.Addr, src []int64) {
	for i, v := range src {
		w.WriteI64(a+core.Addr(8*i), v)
	}
}

// FillI64 implements cvm.Worker.
func (w *Worker) FillI64(a core.Addr, n int, v int64) {
	for i := 0; i < n; i++ {
		w.WriteI64(a+core.Addr(8*i), v)
	}
}
