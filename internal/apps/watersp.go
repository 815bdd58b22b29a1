package apps

import (
	"cvm"
)

// WaterSp is the spatial molecular dynamics simulation (SPLASH Water
// Spatial): a uniform 3-D grid of cells limits force computation to
// neighbouring cells. Each thread owns a contiguous range of cells and
// accumulates forces only into its own molecules (computing each pair from
// both sides), so locks are rare — one energy-lock episode per thread per
// iteration — and remote page faults on neighbour cells dominate, exactly
// the profile the paper reports (most of Water-Sp's speedup comes from
// fault time).
type WaterSp struct {
	verdict
	side  int // cells per dimension; cells = side³
	perC  int // molecules per cell
	iters int

	// mol is the molecule record array: each molecule is molStride
	// float64s (position, velocity, and the predictor-corrector state the
	// SPLASH original keeps per atom), so the array spans many pages as
	// on the real system.
	mol  cvm.F64Matrix
	epot cvm.F64Array

	nodeEpot []float64
	nodeCnt  []int
	initPos  []float64

	// slot scatters molecule records across the shared array, modeling
	// the SPLASH original's linked-list layout: a cell's molecules span
	// many pages, so neighbour-cell reads fault broadly.
	slot []int
}

func init() {
	register("watersp", func(size Size) App { return NewWaterSp(size) })
}

// NewWaterSp builds the Water-Sp instance for an input scale (paper: 4096
// molecules).
func NewWaterSp(size Size) *WaterSp {
	switch size {
	case SizeTest:
		return &WaterSp{side: 2, perC: 12, iters: 2}
	case SizePaper:
		return &WaterSp{side: 4, perC: 64, iters: 4}
	default:
		return &WaterSp{side: 4, perC: 32, iters: 3}
	}
}

// molStride is the per-molecule record width in float64s: 3 position, 3
// velocity, and 7 words of predictor-corrector state (touched but not
// read by the physics here).
const molStride = 13

// fPos/fVel index the position and velocity fields of a molecule record.
const (
	fPos = 0
	fVel = 3
	fAux = 6
)

// get and set access field f of molecule i through the scattered layout.
func (a *WaterSp) get(w cvm.Worker, i, f int) float64 {
	return a.mol.Get(w, a.slot[i], f)
}

func (a *WaterSp) set(w cvm.Worker, i, f int, v float64) {
	a.mol.Set(w, a.slot[i], f, v)
}

// getSpan and setSpan access the contiguous fields [f, f+len) of molecule
// i's record as one span: the records scatter across pages, but fields
// within a record are adjacent, so each record costs one access check.
func (a *WaterSp) getSpan(w cvm.Worker, i, f int, dst []float64) {
	a.mol.RowRange(w, a.slot[i], f, dst)
}

func (a *WaterSp) setSpan(w cvm.Worker, i, f int, src []float64) {
	a.mol.SetRowRange(w, a.slot[i], f, src)
}

// Name implements App.
func (a *WaterSp) Name() string { return "watersp" }

// SupportsThreads implements App.
func (a *WaterSp) SupportsThreads(int) bool { return true }

func (a *WaterSp) cells() int     { return a.side * a.side * a.side }
func (a *WaterSp) molecules() int { return a.cells() * a.perC }

// Setup implements App.
func (a *WaterSp) Setup(c cvm.Allocator) error {
	n := a.molecules()
	a.mol = cvm.MustAllocF64Matrix(c, "watersp.mol", n, molStride, false)
	a.epot = cvm.MustAllocF64(c, "watersp.epot", 1)

	a.nodeEpot = make([]float64, c.Nodes())
	a.nodeCnt = make([]int, c.Nodes())

	// Molecule i's record lives at shared slot a.slot[i], a deterministic
	// shuffle: the SPLASH original reaches molecules through per-cell
	// linked lists whose nodes scatter across the heap, and this layout
	// reproduces that page-locality profile. Positions stay within the
	// owning cell so the neighbour structure is static (no re-binning;
	// the paper's runs are short enough that SPLASH re-bins rarely).
	rs := lcg(97)
	a.slot = make([]int, n)
	for i := range a.slot {
		a.slot[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rs.next() * float64(i+1))
		a.slot[i], a.slot[j] = a.slot[j], a.slot[i]
	}

	r := lcg(53)
	a.initPos = make([]float64, 3*n)
	for cell := 0; cell < a.cells(); cell++ {
		cx := cell / (a.side * a.side)
		cy := (cell / a.side) % a.side
		cz := cell % a.side
		for m := 0; m < a.perC; m++ {
			i := cell*a.perC + m
			a.initPos[3*i] = float64(cx) + r.next()
			a.initPos[3*i+1] = float64(cy) + r.next()
			a.initPos[3*i+2] = float64(cz) + r.next()
		}
	}
	return nil
}

// neighborCells returns cell and its neighbours under periodic boundary
// conditions (every cell sees a full 27-cell neighbourhood, so per-cell
// work is uniform), deduplicated and ascending.
func (a *WaterSp) neighborCells(cell int) []int {
	s := a.side
	cx := cell / (s * s)
	cy := (cell / s) % s
	cz := cell % s
	seen := make(map[int]bool, 27)
	var out []int
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				x := (cx + dx + s) % s
				y := (cy + dy + s) % s
				z := (cz + dz + s) % s
				c := (x*s+y)*s + z
				if !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
		}
	}
	sortInts(out)
	return out
}

// Main implements App.
func (a *WaterSp) Main(w cvm.Worker) {
	n := a.molecules()
	if w.GlobalID() == 0 {
		rec := make([]float64, molStride)
		for d := fAux; d < molStride; d++ {
			rec[d] = 1
		}
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				rec[fPos+d] = a.initPos[3*i+d]
				rec[fVel+d] = 0
			}
			a.setSpan(w, i, 0, rec)
		}
		a.epot.Set(w, 0, 0)
	}
	w.Barrier(0)
	if w.GlobalID() == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	cLo, cHi := chunkOf(a.cells(), w.Threads(), w.GlobalID())
	bar := 10

	for it := 0; it < a.iters; it++ {
		// Force phase: for every molecule of every owned cell, sum pair
		// forces against molecules of the neighbourhood. Both sides of
		// each cross-cell pair compute it, so writes stay local.
		localEpot := 0.0
		var xi, xj, v3 [3]float64
		for cell := cLo; cell < cHi; cell++ {
			neigh := a.neighborCells(cell)
			for m := 0; m < a.perC; m++ {
				i := cell*a.perC + m
				a.getSpan(w, i, fPos, xi[:])
				var f [3]float64
				pairs := 0
				for _, nc := range neigh {
					for mj := 0; mj < a.perC; mj++ {
						j := nc*a.perC + mj
						if j == i {
							continue
						}
						a.getSpan(w, j, fPos, xj[:])
						var dx [3]float64
						r2 := 0.1
						for d := 0; d < 3; d++ {
							dx[d] = xi[d] - xj[d]
							r2 += dx[d] * dx[d]
						}
						inv := 1 / r2
						ff := inv*inv - 0.01*inv
						for d := 0; d < 3; d++ {
							f[d] += ff * dx[d]
						}
						if j > i {
							localEpot += inv
						}
						pairs++
					}
				}
				w.Compute(cvm.Time(pairs) * 20)
				a.getSpan(w, i, fVel, v3[:])
				for d := 0; d < 3; d++ {
					v3[d] += 1e-4 * f[d]
				}
				a.setSpan(w, i, fVel, v3[:])
			}
		}

		// Potential energy: node aggregation, one lock episode per node.
		a.nodeEpot[w.NodeID()] += qfix(localEpot)
		a.nodeCnt[w.NodeID()]++
		w.LocalBarrier(1)
		if a.nodeCnt[w.NodeID()] == w.LocalThreads() {
			sum := a.nodeEpot[w.NodeID()]
			a.nodeEpot[w.NodeID()] = 0
			a.nodeCnt[w.NodeID()] = 0
			w.Lock(0)
			a.epot.Add(w, 0, sum)
			w.Unlock(0)
		}
		w.Barrier(bar)
		bar++

		// Integrate positions of owned molecules (bounded so cell
		// assignment stays valid): one 6-element read span over the
		// adjacent position and velocity fields, one 3-element write back.
		var pv [6]float64
		for cell := cLo; cell < cHi; cell++ {
			for m := 0; m < a.perC; m++ {
				i := cell*a.perC + m
				a.getSpan(w, i, fPos, pv[:])
				for d := 0; d < 3; d++ {
					pv[d] += 1e-3 * pv[fVel+d]
				}
				a.setSpan(w, i, fPos, pv[:3])
				// Predictor-corrector bookkeeping: touch the record tail.
				a.set(w, i, fAux+(it%7), float64(it+1))
			}
		}
		w.Barrier(bar)
		bar++
	}

	if w.GlobalID() == 0 {
		sum := a.epot.Get(w, 0)
		var pv [6]float64
		for i := 0; i < n; i++ {
			a.getSpan(w, i, fPos, pv[:])
			for d := 0; d < 3; d++ {
				sum += pv[d] + 100*pv[fVel+d]
			}
		}
		a.checksum = sum
	}
	w.Barrier(9999)
}

// Check implements App.
func (a *WaterSp) Check() error {
	return a.checkClose("watersp", a.reference())
}

func (a *WaterSp) reference() float64 {
	n := a.molecules()
	pos := append([]float64(nil), a.initPos...)
	vel := make([]float64, 3*n)
	epot := 0.0
	for it := 0; it < a.iters; it++ {
		newVel := append([]float64(nil), vel...)
		for cell := 0; cell < a.cells(); cell++ {
			neigh := a.neighborCells(cell)
			for m := 0; m < a.perC; m++ {
				i := cell*a.perC + m
				var f [3]float64
				for _, nc := range neigh {
					for mj := 0; mj < a.perC; mj++ {
						j := nc*a.perC + mj
						if j == i {
							continue
						}
						var dx [3]float64
						r2 := 0.1
						for d := 0; d < 3; d++ {
							dx[d] = pos[3*i+d] - pos[3*j+d]
							r2 += dx[d] * dx[d]
						}
						inv := 1 / r2
						ff := inv*inv - 0.01*inv
						for d := 0; d < 3; d++ {
							f[d] += ff * dx[d]
						}
						if j > i {
							epot += inv
						}
					}
				}
				for d := 0; d < 3; d++ {
					newVel[3*i+d] = vel[3*i+d] + 1e-4*f[d]
				}
			}
		}
		vel = newVel
		for i := 0; i < 3*n; i++ {
			pos[i] += 1e-3 * vel[i]
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
