package apps

import (
	"cvm"
)

// SWM is the SPEC SWM750 shallow-water benchmark: a two-dimensional
// finite-difference stencil over several state grids, barrier-only, with
// the SUIF fork-join runtime overhead the paper observed as increased user
// time. Rows are stored contiguously (un-padded), so neighbouring
// partitions share pages — the source of the Block-Same-Page counts the
// paper reports for SWM750.
type SWM struct {
	verdict
	n     int // grid dimension (paper: 750)
	iters int

	u, v, p, unew, vnew, pnew cvm.F64Matrix
}

func init() {
	register("swm750", func(size Size) App { return NewSWM(size) })
}

// NewSWM builds the SWM750 instance for an input scale.
func NewSWM(size Size) *SWM {
	switch size {
	case SizeTest:
		return &SWM{n: 48, iters: 2}
	case SizePaper:
		return &SWM{n: 750, iters: 8}
	default:
		return &SWM{n: 192, iters: 4}
	}
}

// Name implements App.
func (s *SWM) Name() string { return "swm750" }

// SupportsThreads implements App.
func (s *SWM) SupportsThreads(int) bool { return true }

// Setup implements App.
func (s *SWM) Setup(c cvm.Allocator) error {
	s.u = cvm.MustAllocF64Matrix(c, "swm.u", s.n, s.n, false)
	s.v = cvm.MustAllocF64Matrix(c, "swm.v", s.n, s.n, false)
	s.p = cvm.MustAllocF64Matrix(c, "swm.p", s.n, s.n, false)
	s.unew = cvm.MustAllocF64Matrix(c, "swm.unew", s.n, s.n, false)
	s.vnew = cvm.MustAllocF64Matrix(c, "swm.vnew", s.n, s.n, false)
	s.pnew = cvm.MustAllocF64Matrix(c, "swm.pnew", s.n, s.n, false)
	return nil
}

// Main implements App.
func (s *SWM) Main(w cvm.Worker) {
	n := s.n
	if w.GlobalID() == 0 {
		r := lcg(11)
		ur := make([]float64, n)
		vr := make([]float64, n)
		pr := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ur[j] = r.next()
				vr[j] = r.next()
				pr[j] = 10 + r.next()
			}
			s.u.SetRow(w, i, ur)
			s.v.SetRow(w, i, vr)
			s.p.SetRow(w, i, pr)
		}
	}
	w.Barrier(0)
	if w.GlobalID() == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	lo, hi := chunkOf(n, w.Threads(), w.GlobalID())
	bar := 10
	const dt = 0.01

	cur := [3]cvm.F64Matrix{s.u, s.v, s.p}
	next := [3]cvm.F64Matrix{s.unew, s.vnew, s.pnew}

	// Per-row span buffers: the stencil reads six source rows (u at i-1,
	// i, i+1; v at i; p at i, i+1) and writes three destination rows, all
	// contiguous — one access check per page instead of per element. The
	// j±1 neighbours wrap within the buffered row, so no extra reads.
	uim := make([]float64, n)
	uic := make([]float64, n)
	uip := make([]float64, n)
	vic := make([]float64, n)
	pic := make([]float64, n)
	pip := make([]float64, n)
	unr := make([]float64, n)
	vnr := make([]float64, n)
	pnr := make([]float64, n)

	for it := 0; it < s.iters; it++ {
		// SUIF fork-join runtime: per-iteration scheduling overhead
		// charged to every thread (the paper's extra user time).
		w.Compute(120 * cvm.Microsecond)

		u, v, p := cur[0], cur[1], cur[2]
		un, vn, pn := next[0], next[1], next[2]

		for i := lo; i < hi; i++ {
			im, ip := (i+n-1)%n, (i+1)%n
			u.Row(w, im, uim)
			u.Row(w, i, uic)
			u.Row(w, ip, uip)
			v.Row(w, i, vic)
			p.Row(w, i, pic)
			p.Row(w, ip, pip)
			for j := 0; j < n; j++ {
				jm, jp := (j+n-1)%n, (j+1)%n
				pc := pic[j]
				unr[j] = uic[j] - dt*(pip[j]-pc)
				vnr[j] = vic[j] - dt*(pic[jp]-pc)
				div := uip[j] - uim[j] + vic[jp] - vic[jm]
				pnr[j] = pc - 0.5*dt*div
			}
			un.SetRow(w, i, unr)
			vn.SetRow(w, i, vnr)
			pn.SetRow(w, i, pnr)
		}
		w.Barrier(bar)
		bar++

		cur, next = next, cur
	}

	if w.GlobalID() == 0 {
		sum := 0.0
		for i := 0; i < n; i++ {
			cur[2].Row(w, i, pic)
			for j := 0; j < n; j += 7 {
				sum += pic[j]
			}
		}
		s.checksum = sum
	}
	w.Barrier(9999)
}

// Check implements App.
func (s *SWM) Check() error {
	return s.checkClose("swm750", s.reference())
}

func (s *SWM) reference() float64 {
	n := s.n
	alloc := func() [][]float64 {
		g := make([][]float64, n)
		for i := range g {
			g[i] = make([]float64, n)
		}
		return g
	}
	u, v, p := alloc(), alloc(), alloc()
	un, vn, pn := alloc(), alloc(), alloc()
	r := lcg(11)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			u[i][j] = r.next()
			v[i][j] = r.next()
			p[i][j] = 10 + r.next()
		}
	}
	const dt = 0.01
	for it := 0; it < s.iters; it++ {
		for i := 0; i < n; i++ {
			im, ip := (i+n-1)%n, (i+1)%n
			for j := 0; j < n; j++ {
				jm, jp := (j+n-1)%n, (j+1)%n
				pc := p[i][j]
				un[i][j] = u[i][j] - dt*(p[ip][j]-pc)
				vn[i][j] = v[i][j] - dt*(p[i][jp]-pc)
				div := u[ip][j] - u[im][j] + v[i][jp] - v[i][jm]
				pn[i][j] = pc - 0.5*dt*div
			}
		}
		u, un = un, u
		v, vn = vn, v
		p, pn = pn, p
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j += 7 {
			sum += p[i][j]
		}
	}
	return sum
}
