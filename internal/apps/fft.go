package apps

import (
	"fmt"
	"math"

	"cvm"
)

// FFT is the transpose-based Fourier transform kernel: row FFTs are pure
// local computation over owned rows, and the transpose steps are the
// communication phase (every thread reads a column stripe spanning all
// other threads' rows). The paper's input is a 64³ 3-D FFT; this is the
// equivalent matrix formulation (m×m complex, same memory footprint at
// m=512), which preserves the transpose communication pattern the paper's
// FFT results are about.
//
// As in the paper, data alignment to pages drives the 3-thread anomaly:
// row counts that do not divide by the total thread count leave partial
// pages shared between consecutive threads.
type FFT struct {
	verdict
	m     int // matrix dimension (power of two)
	iters int

	a, b cvm.F64Matrix // complex matrices: re/im interleaved, 2*m floats per row

}

func init() {
	register("fft", func(size Size) App { return NewFFT(size) })
}

// NewFFT builds the FFT instance for an input scale.
func NewFFT(size Size) *FFT {
	switch size {
	case SizeTest:
		return &FFT{m: 32, iters: 1}
	case SizePaper:
		return &FFT{m: 512, iters: 2}
	default:
		return &FFT{m: 128, iters: 2}
	}
}

// Name implements App.
func (f *FFT) Name() string { return "fft" }

// SupportsThreads implements App.
func (f *FFT) SupportsThreads(int) bool { return true }

// Setup implements App.
func (f *FFT) Setup(c cvm.Allocator) error {
	if f.m&(f.m-1) != 0 {
		return fmt.Errorf("fft: m=%d must be a power of two", f.m)
	}
	f.a = cvm.MustAllocF64Matrix(c, "fft.a", f.m, 2*f.m, false)
	f.b = cvm.MustAllocF64Matrix(c, "fft.b", f.m, 2*f.m, false)
	return nil
}

// Main implements App.
func (f *FFT) Main(w cvm.Worker) {
	if w.GlobalID() == 0 {
		r := lcg(7)
		row := make([]float64, 2*f.m)
		for i := 0; i < f.m; i++ {
			for j := 0; j < f.m; j++ {
				row[2*j] = r.next() - 0.5
				row[2*j+1] = 0
			}
			f.a.SetRow(w, i, row)
		}
	}
	w.Barrier(0)
	if w.GlobalID() == 0 {
		w.MarkSteadyState()
	}
	w.Barrier(1)

	lo, hi := chunkOf(f.m, w.Threads(), w.GlobalID())
	re := make([]float64, f.m)
	im := make([]float64, f.m)
	row := make([]float64, 2*f.m)
	bar := 10

	// transpose writes dst rows from src columns: the column reads stay
	// scalar-granular (each row contributes one re/im pair — the scatter
	// that makes the transpose the communication phase), but the pair is
	// one small span and the assembled destination row is written back as
	// one span per page.
	transpose := func(dst, src cvm.F64Matrix) {
		var pair [2]float64
		for i := lo; i < hi; i++ {
			for j := 0; j < f.m; j++ {
				src.RowRange(w, j, 2*i, pair[:])
				row[2*j], row[2*j+1] = pair[0], pair[1]
			}
			dst.SetRow(w, i, row)
		}
	}

	for it := 0; it < f.iters; it++ {
		// Row FFTs on A.
		f.fftRows(w, f.a, lo, hi, re, im, row)
		w.Barrier(bar)
		bar++

		// Transpose A into B: reads scatter across all nodes' rows.
		transpose(f.b, f.a)
		w.Barrier(bar)
		bar++

		// Row FFTs on B (columns of the original matrix).
		f.fftRows(w, f.b, lo, hi, re, im, row)
		w.Barrier(bar)
		bar++

		// Transpose back into A.
		transpose(f.a, f.b)
		w.Barrier(bar)
		bar++
	}

	if w.GlobalID() == 0 {
		sum := 0.0
		for i := 0; i < f.m; i++ {
			sum += f.a.Get(w, i, 2*(i%f.m)) + f.a.Get(w, i, 2*(i%f.m)+1)
		}
		f.checksum = sum
	}
	w.Barrier(9999)
}

// fftRows transforms rows [lo, hi): each row is read as page-granular
// spans into private buffers, transformed (the n·log n arithmetic charged
// as computation), and written back as spans. row is a 2*m scratch buffer
// for the interleaved re/im layout.
func (f *FFT) fftRows(w cvm.Worker, mat cvm.F64Matrix, lo, hi int, re, im, row []float64) {
	logM := 0
	for 1<<logM < f.m {
		logM++
	}
	for i := lo; i < hi; i++ {
		mat.Row(w, i, row)
		for j := 0; j < f.m; j++ {
			re[j] = row[2*j]
			im[j] = row[2*j+1]
		}
		fft1d(re, im)
		// ~12 flops per butterfly at 275 MHz ≈ 45 ns each.
		w.Compute(cvm.Time(f.m*logM) * 45)
		for j := 0; j < f.m; j++ {
			row[2*j] = re[j]
			row[2*j+1] = im[j]
		}
		mat.SetRow(w, i, row)
	}
}

// Check implements App.
func (f *FFT) Check() error {
	return f.checkClose("fft", f.reference())
}

func (f *FFT) reference() float64 {
	re := make([][]float64, f.m)
	im := make([][]float64, f.m)
	r := lcg(7)
	for i := range re {
		re[i] = make([]float64, f.m)
		im[i] = make([]float64, f.m)
		for j := range re[i] {
			re[i][j] = r.next() - 0.5
		}
	}
	transpose := func(ar, ai [][]float64) ([][]float64, [][]float64) {
		br := make([][]float64, f.m)
		bi := make([][]float64, f.m)
		for i := range br {
			br[i] = make([]float64, f.m)
			bi[i] = make([]float64, f.m)
			for j := range br[i] {
				br[i][j] = ar[j][i]
				bi[i][j] = ai[j][i]
			}
		}
		return br, bi
	}
	for it := 0; it < f.iters; it++ {
		for i := range re {
			fft1d(re[i], im[i])
		}
		re, im = transpose(re, im)
		for i := range re {
			fft1d(re[i], im[i])
		}
		re, im = transpose(re, im)
	}
	sum := 0.0
	for i := range re {
		sum += re[i][i%f.m] + im[i][i%f.m]
	}
	return sum
}

// fft1d is an in-place iterative radix-2 Cooley-Tukey transform.
func fft1d(re, im []float64) {
	n := len(re)
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += length {
			cr, ci := 1.0, 0.0
			for k := start; k < start+length/2; k++ {
				ur, ui := re[k], im[k]
				vr := re[k+length/2]*cr - im[k+length/2]*ci
				vi := re[k+length/2]*ci + im[k+length/2]*cr
				re[k], im[k] = ur+vr, ui+vi
				re[k+length/2], im[k+length/2] = ur-vr, ui-vi
				cr, ci = cr*wr-ci*wi, cr*wi+ci*wr
			}
		}
	}
}
