package apps

import (
	"math"
	"sort"

	"cvm"
)

// Barnes is the paper's modified gravitational N-body simulation: unlike
// SPLASH-2 Barnes, it uses only barrier synchronization — shared updates
// that SPLASH guards with locks are partitioned among the threads. The
// hierarchical tree is approximated by a uniform grid of cells whose
// summaries (total mass and centre of mass) stand in for internal tree
// nodes: every thread reads all summaries each iteration (the all-to-all
// read sharing that makes Barnes fault-bound) plus the exact bodies of its
// own cells.
type Barnes struct {
	verdict
	bodies int
	grid   int // grid dimension; cells = grid²
	iters  int

	pos  cvm.F64Matrix // bodies × (x, y)
	vel  cvm.F64Matrix // bodies × (vx, vy)
	mass cvm.F64Array
	cell cvm.F64Matrix // cells × (mass, cx, cy)

	cellOf []int // body → cell, fixed at init (bodies sorted by cell)
	starts []int // cell → first body index

	// Deterministic initial state shared by the DSM run and the
	// sequential reference.
	initX, initY, initM []float64
}

func init() {
	register("barnes", func(size Size) App { return NewBarnes(size) })
}

// NewBarnes builds the Barnes instance for an input scale (paper: 10240
// particles).
func NewBarnes(size Size) *Barnes {
	switch size {
	case SizeTest:
		return &Barnes{bodies: 192, grid: 4, iters: 2}
	case SizePaper:
		return &Barnes{bodies: 10240, grid: 16, iters: 4}
	default:
		return &Barnes{bodies: 1024, grid: 8, iters: 3}
	}
}

// Name implements App.
func (b *Barnes) Name() string { return "barnes" }

// SupportsThreads implements App.
func (b *Barnes) SupportsThreads(int) bool { return true }

// Setup implements App.
func (b *Barnes) Setup(c cvm.Allocator) error {
	cells := b.grid * b.grid
	b.pos = cvm.MustAllocF64Matrix(c, "barnes.pos", b.bodies, 2, false)
	b.vel = cvm.MustAllocF64Matrix(c, "barnes.vel", b.bodies, 2, false)
	b.mass = cvm.MustAllocF64(c, "barnes.mass", b.bodies)
	b.cell = cvm.MustAllocF64Matrix(c, "barnes.cell", cells, 3, false)

	// Deterministic placement, bodies sorted by cell so each cell's
	// bodies are a contiguous range owned by one thread.
	type placed struct {
		x, y, m float64
		cell    int
	}
	r := lcg(23)
	bodies := make([]placed, b.bodies)
	for i := range bodies {
		x, y := r.next(), r.next()
		cx := int(x * float64(b.grid))
		cy := int(y * float64(b.grid))
		bodies[i] = placed{x: x, y: y, m: 0.5 + r.next(), cell: cx*b.grid + cy}
	}
	sort.SliceStable(bodies, func(i, j int) bool { return bodies[i].cell < bodies[j].cell })

	b.cellOf = make([]int, b.bodies)
	b.starts = make([]int, cells+1)
	b.initX = make([]float64, b.bodies)
	b.initY = make([]float64, b.bodies)
	b.initM = make([]float64, b.bodies)
	for i, bd := range bodies {
		b.cellOf[i] = bd.cell
		b.initX[i], b.initY[i], b.initM[i] = bd.x, bd.y, bd.m
	}
	for c := 1; c <= cells; c++ {
		b.starts[c] = sort.SearchInts(b.cellOf, c)
	}
	return nil
}

// Main implements App.
func (b *Barnes) Main(w cvm.Worker) {
	if w.GlobalID() == 0 {
		var xy [2]float64
		for i := 0; i < b.bodies; i++ {
			xy[0], xy[1] = b.initX[i], b.initY[i]
			b.pos.SetRow(w, i, xy[:])
		}
		b.mass.SetRange(w, 0, b.initM)
	}
	w.Barrier(0)
	if w.GlobalID() == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	cells := b.grid * b.grid
	bLo, bHi := chunkOf(b.bodies, w.Threads(), w.GlobalID())
	cLo, cHi := chunkOf(cells, w.Threads(), w.GlobalID())
	bar := 10

	// Span scratch: each cell's bodies are a contiguous block of the pos
	// matrix and mass array, the cell-summary matrix is one contiguous
	// region every thread re-reads per body, and the owned body range is a
	// contiguous block of pos and vel — all page-granular spans.
	maxPer := 0
	for c := 0; c < cells; c++ {
		if n := b.starts[c+1] - b.starts[c]; n > maxPer {
			maxPer = n
		}
	}
	mbuf := make([]float64, maxPer)
	pbuf := make([]float64, 2*maxPer)
	cellBuf := make([]float64, 3*cells)
	posBlk := make([]float64, 2*(bHi-bLo))
	velBlk := make([]float64, 2*(bHi-bLo))
	var c3 [3]float64
	var xy, v2 [2]float64

	for it := 0; it < b.iters; it++ {
		// Build phase: summarize owned cells (partitioned writes).
		for c := cLo; c < cHi; c++ {
			cnt := b.starts[c+1] - b.starts[c]
			var m, mx, my float64
			if cnt > 0 {
				b.mass.GetRange(w, b.starts[c], mbuf[:cnt])
				w.ReadRangeF64(b.pos.At(b.starts[c], 0), pbuf[:2*cnt])
				for k := 0; k < cnt; k++ {
					bm := mbuf[k]
					m += bm
					mx += bm * pbuf[2*k]
					my += bm * pbuf[2*k+1]
				}
			}
			c3[0] = m
			if m > 0 {
				c3[1], c3[2] = mx/m, my/m
			} else {
				c3[1], c3[2] = 0, 0
			}
			b.cell.SetRow(w, c, c3[:])
		}
		w.Barrier(bar)
		bar++

		// Force phase: every thread reads every cell summary plus the
		// exact bodies of its own cell, then integrates its bodies. The
		// summary matrix is re-read per body — as one whole-matrix span,
		// matching the scalar all-to-all read sharing per page.
		for i := bLo; i < bHi; i++ {
			b.pos.Row(w, i, xy[:])
			xi, yi := xy[0], xy[1]
			var fx, fy float64
			my := b.cellOf[i]
			w.ReadRangeF64(b.cell.At(0, 0), cellBuf)
			for c := 0; c < cells; c++ {
				if c == my {
					continue
				}
				m := cellBuf[3*c]
				if m == 0 {
					continue
				}
				dx := cellBuf[3*c+1] - xi
				dy := cellBuf[3*c+2] - yi
				inv := 1 / math.Sqrt(dx*dx+dy*dy+1e-3)
				f := m * inv * inv * inv
				fx += f * dx
				fy += f * dy
			}
			cnt := b.starts[my+1] - b.starts[my]
			b.mass.GetRange(w, b.starts[my], mbuf[:cnt])
			w.ReadRangeF64(b.pos.At(b.starts[my], 0), pbuf[:2*cnt])
			for k := 0; k < cnt; k++ {
				if b.starts[my]+k == i {
					continue
				}
				dx := pbuf[2*k] - xi
				dy := pbuf[2*k+1] - yi
				inv := 1 / math.Sqrt(dx*dx+dy*dy+1e-3)
				f := mbuf[k] * inv * inv * inv
				fx += f * dx
				fy += f * dy
			}
			w.Compute(cvm.Time(cells+cnt) * 30)
			b.vel.Row(w, i, v2[:])
			v2[0] += 1e-5 * fx
			v2[1] += 1e-5 * fy
			b.vel.SetRow(w, i, v2[:])
		}
		w.Barrier(bar)
		bar++

		// Integrate positions of owned bodies: the owned range is one
		// contiguous block of each matrix, so the whole update is two
		// read spans and one write span.
		if bHi > bLo {
			w.ReadRangeF64(b.pos.At(bLo, 0), posBlk)
			w.ReadRangeF64(b.vel.At(bLo, 0), velBlk)
			for k := range posBlk {
				posBlk[k] += velBlk[k]
			}
			w.WriteRangeF64(b.pos.At(bLo, 0), posBlk)
		}
		w.Barrier(bar)
		bar++
	}

	if w.GlobalID() == 0 {
		sum := 0.0
		for i := 0; i < b.bodies; i++ {
			b.pos.Row(w, i, xy[:])
			sum += xy[0] + xy[1]
		}
		b.checksum = sum
	}
	w.Barrier(9999)
}

// Check implements App.
func (b *Barnes) Check() error {
	return b.checkClose("barnes", b.reference())
}

func (b *Barnes) reference() float64 {
	n := b.bodies
	cells := b.grid * b.grid
	x := append([]float64(nil), b.initX...)
	y := append([]float64(nil), b.initY...)
	vx := make([]float64, n)
	vy := make([]float64, n)
	cm := make([]float64, cells)
	cx := make([]float64, cells)
	cy := make([]float64, cells)
	for it := 0; it < b.iters; it++ {
		for c := 0; c < cells; c++ {
			var m, mx, my float64
			for i := b.starts[c]; i < b.starts[c+1]; i++ {
				m += b.initM[i]
				mx += b.initM[i] * x[i]
				my += b.initM[i] * y[i]
			}
			cm[c] = m
			if m > 0 {
				cx[c], cy[c] = mx/m, my/m
			} else {
				cx[c], cy[c] = 0, 0
			}
		}
		for i := 0; i < n; i++ {
			var fx, fy float64
			my := b.cellOf[i]
			for c := 0; c < cells; c++ {
				if c == my || cm[c] == 0 {
					continue
				}
				dx := cx[c] - x[i]
				dy := cy[c] - y[i]
				inv := 1 / math.Sqrt(dx*dx+dy*dy+1e-3)
				f := cm[c] * inv * inv * inv
				fx += f * dx
				fy += f * dy
			}
			for j := b.starts[my]; j < b.starts[my+1]; j++ {
				if j == i {
					continue
				}
				dx := x[j] - x[i]
				dy := y[j] - y[i]
				inv := 1 / math.Sqrt(dx*dx+dy*dy+1e-3)
				f := b.initM[j] * inv * inv * inv
				fx += f * dx
				fy += f * dy
			}
			vx[i] += 1e-5 * fx
			vy[i] += 1e-5 * fy
		}
		for i := 0; i < n; i++ {
			x[i] += vx[i]
			y[i] += vy[i]
		}
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += x[i] + y[i]
	}
	return sum
}
