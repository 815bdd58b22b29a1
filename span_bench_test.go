package cvm_test

import (
	"testing"

	"cvm"
)

// The benchmarks below isolate the span-accessor fast path against the
// equivalent elementwise loops: the same simulated accesses, virtual-time
// charges, and protocol actions, differing only in how many software
// access checks and codec round-trips the host executes. The scalar/span
// ratio is the amortization factor; TestSpanAllocCaps holds the
// allocation diet of each form.

const (
	spanBenchRows = 64
	spanBenchCols = 1024 // 8 KiB per row: one page
)

// spanKernel is one sweep over the benchmark matrix, in elementwise and
// in row-span form.
type spanKernel struct {
	name         string
	scalar, span func(w cvm.Worker, m cvm.F64Matrix)
	// scalarCap and spanCap bound allocs per run (cluster construction
	// included, page buffers and page-table shards aside) for
	// TestSpanAllocCaps.
	scalarCap, spanCap float64
}

var spanKernels = []spanKernel{
	{name: "Read", scalarCap: 33, spanCap: 34, // pure read sweep: Get against Row
		scalar: func(w cvm.Worker, m cvm.F64Matrix) {
			sum := 0.0
			for r := 0; r < spanBenchRows; r++ {
				for j := 0; j < spanBenchCols; j++ {
					sum += m.Get(w, r, j)
				}
			}
			_ = sum
		},
		span: func(w cvm.Worker, m cvm.F64Matrix) {
			row := make([]float64, spanBenchCols)
			sum := 0.0
			for r := 0; r < spanBenchRows; r++ {
				m.Row(w, r, row)
				for _, v := range row {
					sum += v
				}
			}
			_ = sum
		}},
	{name: "Write", scalarCap: 39, spanCap: 42, // pure write sweep: Set against SetRow
		scalar: func(w cvm.Worker, m cvm.F64Matrix) {
			for r := 0; r < spanBenchRows; r++ {
				for j := 0; j < spanBenchCols; j++ {
					m.Set(w, r, j, float64(r+j))
				}
			}
		},
		span: func(w cvm.Worker, m cvm.F64Matrix) {
			row := make([]float64, spanBenchCols)
			for r := 0; r < spanBenchRows; r++ {
				for j := range row {
					row[j] = float64(r + j)
				}
				m.SetRow(w, r, row)
			}
		}},
	{name: "Sweep", scalarCap: 39, spanCap: 40, // read-modify-write over the whole matrix
		scalar: func(w cvm.Worker, m cvm.F64Matrix) {
			for r := 0; r < spanBenchRows; r++ {
				for j := 0; j < spanBenchCols; j++ {
					m.Set(w, r, j, m.Get(w, r, j)+1)
				}
			}
		},
		span: func(w cvm.Worker, m cvm.F64Matrix) {
			row := make([]float64, spanBenchCols)
			for r := 0; r < spanBenchRows; r++ {
				m.Row(w, r, row)
				for j := range row {
					row[j]++
				}
				m.SetRow(w, r, row)
			}
		}},
	{name: "Fill", scalarCap: 39, spanCap: 39, // constant init: Set against one FillF64 per row
		scalar: func(w cvm.Worker, m cvm.F64Matrix) {
			for r := 0; r < spanBenchRows; r++ {
				for j := 0; j < spanBenchCols; j++ {
					m.Set(w, r, j, 1)
				}
			}
		},
		span: func(w cvm.Worker, m cvm.F64Matrix) {
			for r := 0; r < spanBenchRows; r++ {
				w.FillF64(m.At(r, 0), spanBenchCols, 1)
			}
		}},
	// The SOR inner kernel — a five-point red-black relaxation over one
	// row — elementwise and in the rolling row-buffer form the
	// application uses.
	{name: "SORRow", scalarCap: 39, spanCap: 42,
		scalar: func(w cvm.Worker, m cvm.F64Matrix) {
			for r := 1; r < spanBenchRows-1; r++ {
				for j := 1 + r%2; j < spanBenchCols-1; j += 2 {
					v := 0.25 * (m.Get(w, r-1, j) + m.Get(w, r+1, j) +
						m.Get(w, r, j-1) + m.Get(w, r, j+1))
					m.Set(w, r, j, v)
				}
			}
		},
		span: func(w cvm.Worker, m cvm.F64Matrix) {
			top := make([]float64, spanBenchCols)
			cur := make([]float64, spanBenchCols)
			bot := make([]float64, spanBenchCols)
			m.Row(w, 0, top)
			m.Row(w, 1, cur)
			for r := 1; r < spanBenchRows-1; r++ {
				m.Row(w, r+1, bot)
				for j := 1 + r%2; j < spanBenchCols-1; j += 2 {
					cur[j] = 0.25 * (top[j] + bot[j] + cur[j-1] + cur[j+1])
				}
				m.SetRow(w, r, cur)
				top, cur, bot = cur, bot, top
			}
		}},
}

// runSpanKernel builds a single-node cluster with one matrix large
// enough that the sweep touches many pages, runs the kernel on it, and
// returns the page buffers and page-table shards the run allocated.
func runSpanKernel(tb testing.TB, kernel func(cvm.Worker, cvm.F64Matrix)) int {
	tb.Helper()
	cluster, err := cvm.New(cvm.DefaultConfig(1, 1))
	if err != nil {
		tb.Fatal(err)
	}
	m := cluster.MustAllocF64Matrix("bench.m", spanBenchRows, spanBenchCols, false)
	if _, err := cluster.Run(func(w cvm.Worker) { kernel(w, m) }); err != nil {
		tb.Fatal(err)
	}
	return cluster.System().PageBuffers() + cluster.System().Shards()
}

// spanForm is one form of a kernel with its allocation cap.
type spanForm struct {
	name string
	fn   func(cvm.Worker, cvm.F64Matrix)
	cap  float64
}

func (k spanKernel) forms() []spanForm {
	return []spanForm{{"scalar", k.scalar, k.scalarCap}, {"span", k.span, k.spanCap}}
}

// BenchmarkSpan runs every kernel as Span/<name>/{scalar,span}.
func BenchmarkSpan(b *testing.B) {
	for _, k := range spanKernels {
		for _, form := range k.forms() {
			b.Run(k.name+"/"+form.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runSpanKernel(b, form.fn)
				}
			})
		}
	}
}
