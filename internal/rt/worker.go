package rt

import (
	"fmt"
	"math"
	"runtime"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/sim"
)

// Worker is the real-execution implementation of cvm.Worker: one
// application thread on one node, running while it holds the node's run
// token. The simulator-modelling methods (Compute, TouchPrivate) are
// no-ops — real hardware charges real costs on its own.
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

// chunk is the one way application code reaches page bytes: it resolves
// the first of the cnt 8-byte words at a — as many as lie in a's page —
// to the bytes that hold them, with one split and one table lookup. A page
// homed here is accessed at the master: chunk returns with hmu held and
// the caller hands the page to unhome when it is done with the bytes
// (writes are immediately visible — harmless for data-race-free
// programs). Any other page is accessed in the cache: fetched if absent,
// and for a write twinned and put on the dirty list first. An address
// that is misaligned or outside the allocation fails the node. Caller
// holds tok, and cnt is at least 1.
func (w *Worker) chunk(a core.Addr, cnt int, write bool) ([]byte, *rpage) {
	n := w.n
	if a&7 != 0 || uint64(a) >= uint64(n.c.allocated) {
		n.setFail(fmt.Errorf("thread %d: access at address %d: misaligned or outside the %d allocated bytes",
			w.gid, a, n.c.allocated))
		n.checkFail()
	}
	pg, off := n.c.split(a)
	p := &n.pages[pg]
	if p.home {
		n.hmu.Lock()
	} else {
		if p.data == nil {
			n.fetchPage(w, pg)
		}
		if write && p.twin == nil {
			n.twinPage(p, pg)
		}
	}
	return p.data[off : off+8*min(cnt, (len(p.data)-off)>>3)], p
}

// unhome ends the hmu section chunk opened if p is homed here.
func (n *rnode) unhome(p *rpage) {
	if p.home {
		n.hmu.Unlock()
	}
}

// read8 loads the 8-byte word at a: the one-word case of the spans below.
func (w *Worker) read8(a core.Addr) uint64 {
	seg, p := w.chunk(a, 1, false)
	v := le.Uint64(seg)
	w.n.unhome(p)
	return v
}

// write8 stores the 8-byte word at a.
func (w *Worker) write8(a core.Addr, v uint64) {
	seg, p := w.chunk(a, 1, true)
	le.PutUint64(seg, v)
	w.n.unhome(p)
}

// readSpan loads the words at a into dst: one chunk, one bulk word copy
// per page.
func (w *Worker) readSpan(a core.Addr, dst []uint64) {
	for len(dst) > 0 {
		seg, p := w.chunk(a, len(dst), false)
		core.BytesToU64(seg, dst[:len(seg)/8])
		w.n.unhome(p)
		a, dst = a+core.Addr(len(seg)), dst[len(seg)/8:]
	}
}

// writeSpan stores src at a.
func (w *Worker) writeSpan(a core.Addr, src []uint64) {
	for len(src) > 0 {
		seg, p := w.chunk(a, len(src), true)
		core.U64ToBytes(src[:len(seg)/8], seg)
		w.n.unhome(p)
		a, src = a+core.Addr(len(seg)), src[len(seg)/8:]
	}
}

// fillSpan stores cnt copies of v at a.
func (w *Worker) fillSpan(a core.Addr, cnt int, v uint64) {
	for cnt > 0 {
		seg, p := w.chunk(a, cnt, true)
		core.FillU64(seg, v)
		w.n.unhome(p)
		a, cnt = a+core.Addr(len(seg)), cnt-len(seg)/8
	}
}

// ReadF64 implements cvm.Worker.
func (w *Worker) ReadF64(a core.Addr) float64 { return math.Float64frombits(w.read8(a)) }

// WriteF64 implements cvm.Worker.
func (w *Worker) WriteF64(a core.Addr, v float64) { w.write8(a, math.Float64bits(v)) }

// ReadI64 implements cvm.Worker.
func (w *Worker) ReadI64(a core.Addr) int64 { return int64(w.read8(a)) }

// WriteI64 implements cvm.Worker.
func (w *Worker) WriteI64(a core.Addr, v int64) { w.write8(a, uint64(v)) }

// AddF64 implements cvm.Worker: one lookup and one twin check serve the
// load and the store.
func (w *Worker) AddF64(a core.Addr, v float64) {
	seg, p := w.chunk(a, 1, true)
	le.PutUint64(seg, math.Float64bits(math.Float64frombits(le.Uint64(seg))+v))
	w.n.unhome(p)
}

// ReadRangeF64 implements cvm.Worker.
func (w *Worker) ReadRangeF64(a core.Addr, dst []float64) { w.readSpan(a, core.F64sAsU64s(dst)) }

// WriteRangeF64 implements cvm.Worker.
func (w *Worker) WriteRangeF64(a core.Addr, src []float64) { w.writeSpan(a, core.F64sAsU64s(src)) }

// FillF64 implements cvm.Worker.
func (w *Worker) FillF64(a core.Addr, n int, v float64) { w.fillSpan(a, n, math.Float64bits(v)) }

// ReadRangeI64 implements cvm.Worker.
func (w *Worker) ReadRangeI64(a core.Addr, dst []int64) { w.readSpan(a, core.I64sAsU64s(dst)) }

// WriteRangeI64 implements cvm.Worker.
func (w *Worker) WriteRangeI64(a core.Addr, src []int64) { w.writeSpan(a, core.I64sAsU64s(src)) }

// FillI64 implements cvm.Worker.
func (w *Worker) FillI64(a core.Addr, n int, v int64) { w.fillSpan(a, n, uint64(v)) }
