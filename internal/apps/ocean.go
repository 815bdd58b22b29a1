package apps

import (
	"cvm"
)

// Ocean models SPLASH-2's contiguous Ocean: a multigrid red-black solver
// over several full-size state grids with lock-guarded global reductions.
// The paper includes it as the application that is "anything but
// well-tuned" for CVM — SPLASH Ocean keeps ~25 grids and sweeps several
// per phase, and with un-padded rows (a few rows per page) every sweep
// invalidates nearly every boundary page, so the single-threaded run is
// fault-bound; multi-threading then hides a large share of that latency.
// Like the SPLASH original, the thread count must be a power of two.
//
// The paper's `g` and `r` modifications are reflected here: global
// residual accumulation is aggregated per node with a local barrier
// before touching the global lock.
type Ocean struct {
	verdict
	n     int // fine grid dimension (paper: 258)
	iters int

	u, b, r, psi cvm.F64Matrix // fine-grid state arrays
	coarse       cvm.F64Matrix
	resid        cvm.F64Array // global residual accumulator (lock-guarded)

	nodeResid []float64 // per-node aggregation buffer (node-local memory)
	nodeCnt   []int
}

func init() {
	register("ocean", func(size Size) App { return NewOcean(size) })
}

// NewOcean builds the Ocean instance for an input scale.
func NewOcean(size Size) *Ocean {
	switch size {
	case SizeTest:
		return &Ocean{n: 34, iters: 2}
	case SizePaper:
		return &Ocean{n: 258, iters: 6}
	default:
		return &Ocean{n: 130, iters: 4}
	}
}

// Name implements App.
func (o *Ocean) Name() string { return "ocean" }

// SupportsThreads reports power-of-two thread levels only, as in the
// paper ("no three-thread case for Ocean").
func (o *Ocean) SupportsThreads(t int) bool { return t&(t-1) == 0 }

// Setup implements App.
func (o *Ocean) Setup(c cvm.Allocator) error {
	o.u = cvm.MustAllocF64Matrix(c, "ocean.u", o.n, o.n, false)
	o.b = cvm.MustAllocF64Matrix(c, "ocean.b", o.n, o.n, false)
	o.r = cvm.MustAllocF64Matrix(c, "ocean.r", o.n, o.n, false)
	o.psi = cvm.MustAllocF64Matrix(c, "ocean.psi", o.n, o.n, false)
	o.coarse = cvm.MustAllocF64Matrix(c, "ocean.coarse", o.n/2, o.n/2, false)
	o.resid = cvm.MustAllocF64(c, "ocean.resid", 8)
	o.nodeResid = make([]float64, 64)
	o.nodeCnt = make([]int, 64)
	return nil
}

// Main implements App.
func (o *Ocean) Main(w cvm.Worker) {
	n := o.n
	if w.GlobalID() == 0 {
		r := lcg(31)
		urow := make([]float64, n)
		brow := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				urow[j] = oceanInit(&r, i, j, n)
				brow[j] = 0.01 * r.next()
			}
			o.u.SetRow(w, i, urow)
			o.b.SetRow(w, i, brow)
		}
		// Un-padded rows are contiguous, so each grid zeroes as one fill.
		w.FillF64(o.r.At(0, 0), n*n, 0)
		w.FillF64(o.psi.At(0, 0), n*n, 0)
		w.FillF64(o.coarse.At(0, 0), (n/2)*(n/2), 0)
	}
	w.Barrier(0)
	if w.GlobalID() == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	// Co-located threads traverse rows from rotated starting points so
	// their outstanding fetches target different pages (the paper's
	// access-reordering optimization: "threads start at a different
	// portion of the shared array, wrapping around").
	rowStart := 1 + (n-2)*w.LocalID()/w.LocalThreads()
	forRows := func(body func(i int)) {
		for k := 0; k < n-2; k++ {
			i := rowStart + k
			if i > n-2 {
				i -= n - 2
			}
			body(i)
		}
	}

	// Ocean partitions by COLUMN stripes over row-major grids — the
	// layout mismatch that makes it "anything but well-tuned" for a
	// page-based DSM: every thread's stripe intersects every page of
	// every row, so each sweep faults nearly the whole grid remotely and
	// the multiple-writer protocol merges per-page diffs from all nodes.
	jLo, jHi := chunkOf(n-2, w.Threads(), w.GlobalID())
	jLo, jHi = jLo+1, jHi+1
	cn := n / 2
	cLo, cHi := chunkOf(cn-2, w.Threads(), w.GlobalID())
	cLo, cHi = cLo+1, cHi+1
	bar := 10

	// Span scratch rows for the contiguous sweeps (phases 3, 4 and 7);
	// the red-black phases keep the scalar stride-2 access pattern.
	rowUp := make([]float64, n)
	rowDn := make([]float64, n)
	rowC := make([]float64, n)
	rowB := make([]float64, n)
	rowW := make([]float64, n)

	for it := 0; it < o.iters; it++ {
		// Red-black relaxation of u against the source term b.
		for color := 0; color < 2; color++ {
			forRows(func(i int) {
				start := jLo
				if (i+start)%2 != (1+color)%2 {
					start++
				}
				for j := start; j < jHi; j += 2 {
					v := 0.25 * (o.u.Get(w, i-1, j) + o.u.Get(w, i+1, j) +
						o.u.Get(w, i, j-1) + o.u.Get(w, i, j+1) - o.b.Get(w, i, j))
					o.u.Set(w, i, j, v)
				}
			})
			w.Barrier(bar)
			bar++
		}

		// Residual grid: r = stencil(u) - b, plus the scalar residual
		// norm aggregated per node behind a local barrier (the `r`
		// modification) and published under the global lock. The full-j
		// sweep is contiguous, so the stencil's source rows are read as
		// page-granular spans and the residual row is written as one.
		local := 0.0
		wj := jHi - jLo
		forRows(func(i int) {
			if wj <= 0 {
				return
			}
			um, up := rowUp[:wj], rowDn[:wj]
			uc := rowC[:wj+2]
			bc, rc := rowB[:wj], rowW[:wj]
			o.u.RowRange(w, i-1, jLo, um)
			o.u.RowRange(w, i+1, jLo, up)
			o.u.RowRange(w, i, jLo-1, uc)
			o.b.RowRange(w, i, jLo, bc)
			for k := 0; k < wj; k++ {
				d := uc[k+1] - 0.25*(um[k]+up[k]+uc[k]+uc[k+2]-bc[k])
				rc[k] = d
				local += d * d
			}
			o.r.SetRowRange(w, i, jLo, rc)
		})
		o.nodeResid[w.NodeID()] += qfix(local)
		o.nodeCnt[w.NodeID()]++
		w.LocalBarrier(1)
		if o.nodeCnt[w.NodeID()] == w.LocalThreads() {
			sum := o.nodeResid[w.NodeID()]
			o.nodeResid[w.NodeID()] = 0
			o.nodeCnt[w.NodeID()] = 0
			w.Lock(0)
			o.resid.Set(w, 0, o.resid.Get(w, 0)+sum)
			w.Unlock(0)
		}
		w.Barrier(bar)
		bar++

		// Restrict the residual to the coarse grid and relax there
		// (single colour: order-independent). Each coarse cell reads a
		// 2×2 fine block; across the j sweep those blocks tile two
		// contiguous fine rows, read as spans.
		for i := cLo; i < cHi; i++ {
			fw := 2 * (cn - 2)
			ra, rb := rowUp[:fw], rowDn[:fw]
			o.r.RowRange(w, 2*i, 2, ra)
			o.r.RowRange(w, 2*i+1, 2, rb)
			cw := rowW[:cn-2]
			for j := 1; j < cn-1; j++ {
				k := 2 * (j - 1)
				cw[j-1] = 0.25 * (ra[k] + rb[k] + ra[k+1] + rb[k+1])
			}
			o.coarse.SetRowRange(w, i, 1, cw)
		}
		w.Barrier(bar)
		bar++

		for i := cLo; i < cHi; i++ {
			for j := 1 + i%2; j < cn-1; j += 2 {
				v := 0.25 * (o.coarse.Get(w, i-1, j) + o.coarse.Get(w, i+1, j) +
					o.coarse.Get(w, i, j-1) + o.coarse.Get(w, i, j+1))
				o.coarse.Set(w, i, j, 0.5*(o.coarse.Get(w, i, j)+v))
			}
		}
		w.Barrier(bar)
		bar++

		// Interpolate the correction back into u.
		jTop := jHi
		if jTop > n-2 {
			jTop = n - 2
		}
		forRows(func(i int) {
			ci := i / 2
			if ci < 1 || ci >= cn-1 {
				return
			}
			for j := jLo + jLo%2; j < jTop; j += 2 {
				cj := j / 2
				if cj < 1 || cj >= cn-1 {
					continue
				}
				o.u.Set(w, i, j, o.u.Get(w, i, j)-0.05*o.coarse.Get(w, ci, cj))
			}
		})
		w.Barrier(bar)
		bar++

		// Integrate the stream-function grid from u (a second full-grid
		// sweep, reading across the partition boundary), span per row.
		forRows(func(i int) {
			if wj <= 0 {
				return
			}
			pc, uc, um := rowW[:wj], rowC[:wj], rowUp[:wj]
			o.psi.RowRange(w, i, jLo, pc)
			o.u.RowRange(w, i, jLo, uc)
			o.u.RowRange(w, i-1, jLo, um)
			for k := 0; k < wj; k++ {
				pc[k] = 0.9*pc[k] + 0.1*(uc[k]-um[k])
			}
			o.psi.SetRowRange(w, i, jLo, pc)
		})
		w.Barrier(bar)
		bar++
	}

	if w.GlobalID() == 0 {
		sum := o.resid.Get(w, 0)
		for i := 0; i < n; i++ {
			o.u.Row(w, i, rowUp)
			o.psi.Row(w, i, rowDn)
			for j := 0; j < n; j += 3 {
				sum += rowUp[j] + rowDn[j]
			}
		}
		o.checksum = sum
	}
	w.Barrier(9999)
}

// Check implements App.
func (o *Ocean) Check() error {
	return o.checkClose("ocean", o.reference())
}

func (o *Ocean) reference() float64 {
	n := o.n
	cn := n / 2
	alloc := func(rows, cols int) [][]float64 {
		g := make([][]float64, rows)
		for i := range g {
			g[i] = make([]float64, cols)
		}
		return g
	}
	u := alloc(n, n)
	b := alloc(n, n)
	rg := alloc(n, n)
	psi := alloc(n, n)
	coarse := alloc(cn, cn)
	r := lcg(31)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u[i][j] = oceanInit(&r, i, j, n)
			b[i][j] = 0.01 * r.next()
		}
	}
	resid := 0.0
	for it := 0; it < o.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i < n-1; i++ {
				for j := 1 + (i+color)%2; j < n-1; j += 2 {
					u[i][j] = 0.25 * (u[i-1][j] + u[i+1][j] +
						u[i][j-1] + u[i][j+1] - b[i][j])
				}
			}
		}
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				d := u[i][j] - 0.25*(u[i-1][j]+u[i+1][j]+u[i][j-1]+u[i][j+1]-b[i][j])
				rg[i][j] = d
				resid += d * d
			}
		}
		for i := 1; i < cn-1; i++ {
			for j := 1; j < cn-1; j++ {
				coarse[i][j] = 0.25 * (rg[2*i][2*j] + rg[2*i+1][2*j] +
					rg[2*i][2*j+1] + rg[2*i+1][2*j+1])
			}
		}
		for i := 1; i < cn-1; i++ {
			for j := 1 + i%2; j < cn-1; j += 2 {
				v := 0.25 * (coarse[i-1][j] + coarse[i+1][j] +
					coarse[i][j-1] + coarse[i][j+1])
				coarse[i][j] = 0.5 * (coarse[i][j] + v)
			}
		}
		for i := 1; i < n-1; i++ {
			ci := i / 2
			if ci < 1 || ci >= cn-1 {
				continue
			}
			for j := 2; j < n-2; j += 2 {
				cj := j / 2
				if cj < 1 || cj >= cn-1 {
					continue
				}
				u[i][j] -= 0.05 * coarse[ci][cj]
			}
		}
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				psi[i][j] = 0.9*psi[i][j] + 0.1*(u[i][j]-u[i-1][j])
			}
		}
	}
	sum := resid
	for i := 0; i < n; i++ {
		for j := 0; j < n; j += 3 {
			sum += u[i][j] + psi[i][j]
		}
	}
	return sum
}

func oceanInit(r *lcg, i, j, n int) float64 {
	v := r.next()
	if i == 0 || j == 0 || i == n-1 || j == n-1 {
		return 2
	}
	return v
}
