package apps

import (
	"fmt"

	"cvm"
)

// WaterVariant selects the Water-Nsq source-modification level studied in
// the paper's Table 5 case study.
type WaterVariant int

// Water-Nsq variants.
const (
	// WaterNoOpts only promotes globals to shared data (the `g`
	// modification): every thread updates the shared force array
	// directly under per-molecule locks. Transparent multi-threading
	// uniformly hurts this version.
	WaterNoOpts WaterVariant = iota
	// WaterLocalBarrier adds the `r` modification: threads accumulate
	// forces into node-local memory, synchronize with a local barrier,
	// and cooperatively flush one aggregate update per node (each thread
	// starting at a different portion of the array, wrapping around).
	WaterLocalBarrier
	// WaterBoth additionally reorders the read phase so co-located
	// threads start at opposing ends of the molecule array, delaying
	// overlapping reads of the same page (the version the paper uses
	// everywhere outside Table 5).
	WaterBoth
)

// String returns the Table 5 row label.
func (v WaterVariant) String() string {
	switch v {
	case WaterNoOpts:
		return "No Opts"
	case WaterLocalBarrier:
		return "w/ Local Barrier"
	default:
		return "w/ Both Opts"
	}
}

// WaterNsq is the O(N²) molecular dynamics simulation (SPLASH Water
// N-squared): per-molecule locks guard force updates, making it the
// paper's lock-bound application and its Table 5 case study.
type WaterNsq struct {
	verdict
	n       int // molecules (paper: 512)
	iters   int
	variant WaterVariant

	// mol is the molecule record array (molStride float64s per molecule:
	// position, velocity, force, and predictor-corrector state), spanning
	// many pages as the SPLASH original does.
	mol  cvm.F64Matrix
	epot cvm.F64Array // global potential-energy accumulator

	// Node-local accumulation buffers (physical memory shared by
	// co-located threads; never accessed across nodes).
	nodeForce [][]float64
	nodeEpot  []float64
	initPos   []float64
}

func init() {
	register("waternsq", func(size Size) App { return NewWaterNsq(size, WaterBoth) })
	register("waternsq-noopts", func(size Size) App { return NewWaterNsq(size, WaterNoOpts) })
	register("waternsq-localbarrier", func(size Size) App { return NewWaterNsq(size, WaterLocalBarrier) })
}

// NewWaterNsq builds the Water-Nsq instance for a scale and variant.
func NewWaterNsq(size Size, variant WaterVariant) *WaterNsq {
	switch size {
	case SizeTest:
		return &WaterNsq{n: 48, iters: 2, variant: variant}
	case SizePaper:
		return &WaterNsq{n: 512, iters: 4, variant: variant}
	default:
		return &WaterNsq{n: 192, iters: 3, variant: variant}
	}
}

// Name implements App.
func (a *WaterNsq) Name() string {
	switch a.variant {
	case WaterNoOpts:
		return "waternsq-noopts"
	case WaterLocalBarrier:
		return "waternsq-localbarrier"
	default:
		return "waternsq"
	}
}

// SupportsThreads implements App.
func (a *WaterNsq) SupportsThreads(int) bool { return true }

// Setup implements App.
func (a *WaterNsq) Setup(c cvm.Allocator) error {
	if a.n < 4 {
		return fmt.Errorf("waternsq: %d molecules too few", a.n)
	}
	a.mol = cvm.MustAllocF64Matrix(c, "water.mol", a.n, molStride, false)
	a.epot = cvm.MustAllocF64(c, "water.epot", 1)

	a.nodeForce = make([][]float64, c.Nodes())
	for i := range a.nodeForce {
		a.nodeForce[i] = make([]float64, 3*a.n)
	}
	a.nodeEpot = make([]float64, c.Nodes())

	r := lcg(41)
	a.initPos = make([]float64, 3*a.n)
	for i := range a.initPos {
		a.initPos[i] = r.next() * 4
	}
	return nil
}

// molLock is the lock guarding molecule m's force entry (lock 0 is the
// potential-energy lock).
func molLock(m int) int { return 100 + m }

// fForce and fTail index the force and predictor-corrector fields of a
// molecule record (fPos and fVel are shared with Water-Sp).
const (
	fForce = 6
	fTail  = 9
)

// Main implements App.
func (a *WaterNsq) Main(w cvm.Worker) {
	if w.GlobalID() == 0 {
		rec := make([]float64, molStride)
		for i := 0; i < a.n; i++ {
			for d := 0; d < 3; d++ {
				rec[fPos+d] = a.initPos[3*i+d]
				rec[fVel+d] = 0
				rec[fForce+d] = 0
			}
			for d := fTail; d < molStride; d++ {
				rec[d] = 1
			}
			a.mol.SetRow(w, i, rec)
		}
		a.epot.Set(w, 0, 0)
	}
	w.Barrier(0)
	if w.GlobalID() == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	lo, hi := chunkOf(a.n, w.Threads(), w.GlobalID())
	contrib := make([]float64, 3*a.n)
	touched := make([]bool, a.n)
	// Span scratch over a molecule record's contiguous fields.
	var posVel [6]float64
	var f3 [3]float64
	bar := 10

	for it := 0; it < a.iters; it++ {
		// Predict: integrate positions of owned molecules. Each record's
		// position and velocity fields are adjacent, so the update is one
		// 6-element read span and one 3-element write span.
		for i := lo; i < hi; i++ {
			a.mol.RowRange(w, i, fPos, posVel[:])
			for d := 0; d < 3; d++ {
				posVel[d] += 0.01 * posVel[fVel+d]
			}
			a.mol.SetRowRange(w, i, fPos, posVel[:3])
		}
		w.Barrier(bar)
		bar++

		// Inter-molecular forces: each thread computes a half-shell of
		// pairs for its molecules, accumulating privately.
		for i := range contrib {
			contrib[i] = 0
		}
		for i := range touched {
			touched[i] = false
		}
		localEpot := 0.0
		forEachOwned(lo, hi, a.readDescending(w), func(i int) {
			var xi, xj [3]float64
			a.mol.RowRange(w, i, fPos, xi[:])
			half := a.n / 2
			for k := 1; k <= half; k++ {
				j := i + k
				if j >= a.n {
					break
				}
				a.mol.RowRange(w, j, fPos, xj[:])
				var dx [3]float64
				r2 := 0.1
				for d := 0; d < 3; d++ {
					dx[d] = xi[d] - xj[d]
					r2 += dx[d] * dx[d]
				}
				inv := 1 / r2
				f := inv*inv - 0.01*inv
				for d := 0; d < 3; d++ {
					contrib[3*i+d] += f * dx[d]
					contrib[3*j+d] -= f * dx[d]
				}
				touched[i], touched[j] = true, true
				localEpot += inv
			}
			w.Compute(cvm.Time(half) * 60) // ~16 flops per pair
		})
		w.Barrier(bar)
		bar++

		// Publish force contributions to the shared array.
		switch a.variant {
		case WaterNoOpts:
			// Every thread updates shared forces directly, one
			// per-molecule lock at a time, then the global energy.
			for m := 0; m < a.n; m++ {
				if !touched[m] {
					continue
				}
				w.Lock(molLock(m))
				a.mol.RowRange(w, m, fForce, f3[:])
				for d := 0; d < 3; d++ {
					f3[d] += qfix(contrib[3*m+d])
				}
				a.mol.SetRowRange(w, m, fForce, f3[:])
				w.Unlock(molLock(m))
			}
			w.Lock(0)
			a.epot.Add(w, 0, qfix(localEpot))
			w.Unlock(0)

		default:
			// Aggregate per node behind a local barrier, then flush
			// cooperatively: each thread starts at a different portion
			// of the array and wraps (crude local load balancing).
			nf := a.nodeForce[w.NodeID()]
			for m := 0; m < a.n; m++ {
				if !touched[m] {
					continue
				}
				for d := 0; d < 3; d++ {
					nf[3*m+d] += qfix(contrib[3*m+d])
				}
			}
			a.nodeEpot[w.NodeID()] += qfix(localEpot)
			w.Compute(cvm.Time(a.n) * 30)
			w.LocalBarrier(1)

			segLo, segHi := chunkOf(a.n, w.LocalThreads(), w.LocalID())
			for m := segLo; m < segHi; m++ {
				z := nf[3*m] != 0 || nf[3*m+1] != 0 || nf[3*m+2] != 0
				if !z {
					continue
				}
				w.Lock(molLock(m))
				a.mol.RowRange(w, m, fForce, f3[:])
				for d := 0; d < 3; d++ {
					f3[d] += nf[3*m+d]
					nf[3*m+d] = 0
				}
				a.mol.SetRowRange(w, m, fForce, f3[:])
				w.Unlock(molLock(m))
			}
			if w.LocalID() == 0 {
				w.Lock(0)
				a.epot.Add(w, 0, a.nodeEpot[w.NodeID()])
				w.Unlock(0)
				a.nodeEpot[w.NodeID()] = 0
			}
		}
		w.Barrier(bar)
		bar++

		// Correct: apply forces to owned molecules and clear them. The
		// velocity and force fields are adjacent, so the update is one
		// 6-element read span and one 6-element write span per record.
		for i := lo; i < hi; i++ {
			a.mol.RowRange(w, i, fVel, posVel[:])
			for d := 0; d < 3; d++ {
				posVel[d] += 1e-4 * posVel[3+d]
				posVel[3+d] = 0
			}
			a.mol.SetRowRange(w, i, fVel, posVel[:])
			// Predictor-corrector bookkeeping: touch the record tail.
			a.mol.Set(w, i, fTail+(it%4), float64(it+1))
		}
		w.Barrier(bar)
		bar++
	}

	if w.GlobalID() == 0 {
		sum := a.epot.Get(w, 0)
		for i := 0; i < a.n; i++ {
			a.mol.RowRange(w, i, fPos, posVel[:])
			for d := 0; d < 3; d++ {
				sum += posVel[d] + 100*posVel[fVel+d]
			}
		}
		a.checksum = sum
	}
	w.Barrier(9999)
}

// readDescending reports whether this thread should traverse its
// molecules in descending order (the `Both` read-reordering: odd local
// threads start at the opposite end).
func (a *WaterNsq) readDescending(w cvm.Worker) bool {
	return a.variant == WaterBoth && w.LocalID()%2 == 1
}

// forEachOwned visits [lo, hi) in ascending or descending order.
func forEachOwned(lo, hi int, descending bool, fn func(i int)) {
	if descending {
		for i := hi - 1; i >= lo; i-- {
			fn(i)
		}
		return
	}
	for i := lo; i < hi; i++ {
		fn(i)
	}
}

// Check implements App.
func (a *WaterNsq) Check() error {
	return a.checkClose(a.Name(), a.reference())
}

func (a *WaterNsq) reference() float64 {
	n := a.n
	pos := append([]float64(nil), a.initPos...)
	vel := make([]float64, 3*n)
	force := make([]float64, 3*n)
	epot := 0.0
	for it := 0; it < a.iters; it++ {
		for i := 0; i < 3*n; i++ {
			pos[i] += 0.01 * vel[i]
		}
		for i := 0; i < n; i++ {
			for k := 1; k <= n/2; k++ {
				j := i + k
				if j >= n {
					break
				}
				var dx [3]float64
				r2 := 0.1
				for d := 0; d < 3; d++ {
					dx[d] = pos[3*i+d] - pos[3*j+d]
					r2 += dx[d] * dx[d]
				}
				inv := 1 / r2
				f := inv*inv - 0.01*inv
				for d := 0; d < 3; d++ {
					force[3*i+d] += f * dx[d]
					force[3*j+d] -= f * dx[d]
				}
				epot += inv
			}
		}
		for i := 0; i < 3*n; i++ {
			vel[i] += 1e-4 * force[i]
			force[i] = 0
		}
	}
	sum := epot
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			sum += pos[3*i+d] + 100*vel[3*i+d]
		}
	}
	return sum
}
