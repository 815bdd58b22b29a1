package apps

import (
	"fmt"

	"cvm"
)

// Scaleout is the synthetic scaling workload behind BENCH_scaleout.json:
// a cluster-size stress that exercises every DSM primitive — remote read
// faults, write faults, lock grants with write notices, barriers and a
// reduction — over an address space far larger than any node's working
// set. Three shared regions:
//
//   - strip: one page per thread. Each epoch, thread t writes a small
//     cluster of counters into its own page, then (after a barrier)
//     reads its neighbour's page — one remote fault per thread per
//     epoch whenever the neighbour lives on another node.
//   - accum: striped lock-protected accumulators, several int64 slots
//     sharing pages, so concurrent critical sections produce
//     multi-writer pages and real diff merging.
//   - cold: a large allocated-but-never-touched region. It exists to
//     blow up the address space (at SizePaper, 1024 pages per thread:
//     a 1024-node run crosses a million pages) while the sparse page
//     directory keeps resident state proportional to the working set.
//
// All shared arithmetic is small-integer, so every sum is exact in
// float64 and the checksum is closed-form: Check needs no sequential
// grid, just the same arithmetic re-done locally. That also makes the
// checksum independent of lock-grant order — the chaos and
// transport-equivalence suites get an exact cross-backend oracle.
type Scaleout struct {
	verdict
	epochs        int
	coldPerThread int // untouched pages per thread

	threads  int
	stripes  int
	pageSize int

	strip cvm.Addr
	accum cvm.I64Array
	cold  cvm.Addr
}

func init() {
	register("scaleout", func(size Size) App { return NewScaleout(size) })
}

// NewScaleout builds the scaling workload for an input scale. The scale
// only changes epoch count and cold-region size; the working set per
// thread is constant by design.
func NewScaleout(size Size) *Scaleout {
	switch size {
	case SizeTest:
		return &Scaleout{epochs: 3, coldPerThread: 4}
	case SizePaper:
		return &Scaleout{epochs: 4, coldPerThread: 1024}
	default:
		return &Scaleout{epochs: 4, coldPerThread: 64}
	}
}

// Name implements App.
func (s *Scaleout) Name() string { return "scaleout" }

// SupportsThreads implements App.
func (s *Scaleout) SupportsThreads(int) bool { return true }

// scaleoutSentinel is the one value written into (and read back from)
// the cold region, proving the region is addressable without walking it.
const scaleoutSentinel = 104729

// Setup implements App.
func (s *Scaleout) Setup(c cvm.Allocator) error {
	s.threads = c.Nodes() * c.ThreadsPerNode()
	s.pageSize = c.PageSize()
	if s.threads < 1 {
		return fmt.Errorf("scaleout: no threads")
	}
	// Enough stripes that big clusters still contend, few enough that
	// slots share pages and the accumulator region stays hot.
	s.stripes = s.threads
	if s.stripes > 64 {
		s.stripes = 64
	}
	var err error
	if s.strip, err = c.Alloc("scaleout.strip", s.threads*s.pageSize); err != nil {
		return err
	}
	s.accum = cvm.MustAllocI64(c, "scaleout.accum", s.stripes)
	if s.cold, err = c.Alloc("scaleout.cold", s.threads*s.coldPerThread*s.pageSize); err != nil {
		return err
	}
	return nil
}

// stripVal is the counter thread t stores in its strip page at epoch e
// (word k of the 4-word cluster adds k).
func stripVal(t, e int) int64 { return int64(31*t + 7*e + 1) }

// accumVal is thread t's epoch-e contribution to its stripe accumulator.
func accumVal(t, e int) int64 { return int64(t + 3*e + 2) }

// Main implements App.
func (s *Scaleout) Main(w cvm.Worker) {
	t := w.GlobalID()
	if t == 0 {
		// Zero the accumulators and plant the cold-region sentinel; the
		// rest of the cold region is never touched by anyone.
		for i := 0; i < s.stripes; i++ {
			s.accum.Set(w, i, 0)
		}
		w.WriteI64(s.cold, scaleoutSentinel)
	}
	w.Barrier(0)
	if t == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	myPage := s.strip + cvm.Addr(t*s.pageSize)
	nbPage := s.strip + cvm.Addr(((t+1)%s.threads)*s.pageSize)
	var priv int64
	for e := 0; e < s.epochs; e++ {
		// Write phase: a 4-word cluster at an epoch-dependent offset, so
		// the page's diff is a short run in a big page (the sparse wire
		// pattern the compression gate measures).
		off := cvm.Addr((e % 8) * 32)
		for k := 0; k < 4; k++ {
			w.WriteI64(myPage+off+cvm.Addr(k*8), stripVal(t, e)+int64(k))
		}
		w.Barrier(100 + 2*e)

		// Read phase: fetch the neighbour's fresh cluster (remote fault
		// when the neighbour is off-node) and fold it into private state.
		for k := 0; k < 4; k++ {
			priv += w.ReadI64(nbPage + off + cvm.Addr(k*8))
		}

		// Stripe update: a short lock-protected read-modify-write. The
		// stripe rotates with the epoch so lock tokens migrate.
		stripe := (t + e) % s.stripes
		w.Lock(10 + stripe)
		a := s.accum.At(stripe)
		w.WriteI64(a, w.ReadI64(a)+accumVal(t, e))
		w.Unlock(10 + stripe)
		w.Barrier(101 + 2*e)
	}

	// Every thread contributes its private sum through a reduction;
	// integer-valued float64 addition is exact, so the result is
	// identical in any combining order.
	total := w.ReduceF64(1, float64(priv), cvm.ReduceSum)

	if t == 0 {
		sum := int64(0)
		for i := 0; i < s.stripes; i++ {
			sum += s.accum.Get(w, i)
		}
		s.checksum = total + float64(sum) + float64(w.ReadI64(s.cold))
	}
	w.Barrier(9999)
}

// Check validates against the closed form.
func (s *Scaleout) Check() error {
	exp := int64(scaleoutSentinel)
	for e := 0; e < s.epochs; e++ {
		for t := 0; t < s.threads; t++ {
			// Neighbour reads cover every thread's cluster exactly once.
			exp += 4*stripVal(t, e) + 6
			exp += accumVal(t, e)
		}
	}
	return s.checkClose("scaleout", float64(exp))
}
