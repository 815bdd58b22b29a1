package apps

import (
	"fmt"

	"cvm"
)

// SOR is red-black successive over-relaxation with nearest-neighbour
// communication, the paper's simplest application: barrier-only, near
// linear speedup, almost no remote latency to hide. Rows are sized to
// whole pages so — as in the paper — no page is shared by both a local
// thread and a remote node, and local threads never block on the same
// remote request after initialization.
type SOR struct {
	verdict
	rows, cols, iters int

	grid cvm.F64Matrix
}

func init() {
	register("sor", func(size Size) App { return NewSOR(size) })
}

// NewSOR builds the SOR instance for an input scale. The paper's input is
// 2048×2048.
func NewSOR(size Size) *SOR {
	switch size {
	case SizeTest:
		return &SOR{rows: 18, cols: 1024, iters: 2}
	case SizePaper:
		return &SOR{rows: 2048, cols: 2048, iters: 10}
	default:
		return &SOR{rows: 66, cols: 1024, iters: 4}
	}
}

// Name implements App.
func (s *SOR) Name() string { return "sor" }

// SupportsThreads implements App.
func (s *SOR) SupportsThreads(int) bool { return true }

// Setup implements App.
func (s *SOR) Setup(c cvm.Allocator) error {
	if s.rows < 3 || s.cols < 3 {
		return fmt.Errorf("sor: grid %dx%d too small", s.rows, s.cols)
	}
	s.grid = cvm.MustAllocF64Matrix(c, "sor.grid", s.rows, s.cols, true)
	return nil
}

// Main implements App.
func (s *SOR) Main(w cvm.Worker) {
	g := s.grid
	if w.GlobalID() == 0 {
		r := lcg(1)
		row := make([]float64, s.cols)
		for i := 0; i < s.rows; i++ {
			for j := 0; j < s.cols; j++ {
				row[j] = sorInit(&r, i, j, s.rows, s.cols)
			}
			g.SetRow(w, i, row)
		}
	}
	w.Barrier(0)
	if w.GlobalID() == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	lo, hi := chunkOf(s.rows-2, w.Threads(), w.GlobalID())
	lo, hi = lo+1, hi+1 // interior rows only

	// Rolling row buffers: each sweep step reads one new row as a span
	// and writes the updated row back as a span, so the software access
	// check runs per page instead of per element. Red-black parity makes
	// this exact: every neighbour a relaxation reads is the opposite
	// colour, so nothing read here is written by any thread this phase,
	// and rewriting a row's untouched (opposite-colour and boundary)
	// cells stores back the bytes already there — no diff runs result.
	top := make([]float64, s.cols)
	cur := make([]float64, s.cols)
	bot := make([]float64, s.cols)

	for it := 0; it < s.iters; it++ {
		for color := 0; color < 2; color++ {
			if hi > lo {
				g.Row(w, lo-1, top)
				g.Row(w, lo, cur)
			}
			for i := lo; i < hi; i++ {
				g.Row(w, i+1, bot)
				for j := 1 + (i+color)%2; j < s.cols-1; j += 2 {
					cur[j] = 0.25 * (top[j] + bot[j] + cur[j-1] + cur[j+1])
				}
				g.SetRow(w, i, cur)
				top, cur, bot = cur, bot, top
			}
			w.Barrier(10 + 2*it + color)
		}
	}

	if w.GlobalID() == 0 {
		sum := 0.0
		for i := 0; i < s.rows; i++ {
			g.Row(w, i, cur)
			for j := 0; j < s.cols; j++ {
				sum += cur[j]
			}
		}
		s.checksum = sum
	}
	w.Barrier(9999)
}

// Check implements App.
func (s *SOR) Check() error {
	return s.checkClose("sor", s.reference())
}

// reference runs the identical relaxation sequentially.
func (s *SOR) reference() float64 {
	grid := make([][]float64, s.rows)
	r := lcg(1)
	for i := range grid {
		grid[i] = make([]float64, s.cols)
		for j := range grid[i] {
			grid[i][j] = sorInit(&r, i, j, s.rows, s.cols)
		}
	}
	for it := 0; it < s.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i < s.rows-1; i++ {
				for j := 1 + (i+color)%2; j < s.cols-1; j += 2 {
					grid[i][j] = 0.25 * (grid[i-1][j] + grid[i+1][j] +
						grid[i][j-1] + grid[i][j+1])
				}
			}
		}
	}
	sum := 0.0
	for i := range grid {
		for j := range grid[i] {
			sum += grid[i][j]
		}
	}
	return sum
}

// sorInit gives boundary cells a fixed temperature and interior cells a
// deterministic pseudo-random value.
func sorInit(r *lcg, i, j, rows, cols int) float64 {
	v := r.next()
	if i == 0 || j == 0 || i == rows-1 || j == cols-1 {
		return 1
	}
	return v
}
