package cvm_test

import (
	"testing"

	"cvm"
)

// The benchmarks below isolate the span-accessor fast path against the
// equivalent elementwise loops: the same simulated accesses, virtual-time
// charges, and protocol actions, differing only in how many software
// access checks and codec round-trips the host executes. The scalar/span
// ratio is the amortization factor recorded in BENCH_harness.json.

const (
	spanBenchRows = 64
	spanBenchCols = 1024 // 8 KiB per row: two 4 KiB pages
)

// spanBenchCluster builds a single-node cluster with one matrix large
// enough that the sweep touches many pages.
func spanBenchCluster(b *testing.B) (*cvm.Cluster, cvm.F64Matrix) {
	b.Helper()
	cluster, err := cvm.New(cvm.DefaultConfig(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	return cluster, cluster.MustAllocF64Matrix("bench.m", spanBenchRows, spanBenchCols, false)
}

// BenchmarkSpanRead measures a pure read sweep: elementwise Get against
// ReadRangeF64 row spans.
func BenchmarkSpanRead(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				sum := 0.0
				for r := 0; r < spanBenchRows; r++ {
					for j := 0; j < spanBenchCols; j++ {
						sum += m.Get(w, r, j)
					}
				}
				_ = sum
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				row := make([]float64, spanBenchCols)
				sum := 0.0
				for r := 0; r < spanBenchRows; r++ {
					m.Row(w, r, row)
					for _, v := range row {
						sum += v
					}
				}
				_ = sum
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpanWrite measures a pure write sweep: elementwise Set against
// WriteRangeF64 row spans.
func BenchmarkSpanWrite(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				for r := 0; r < spanBenchRows; r++ {
					for j := 0; j < spanBenchCols; j++ {
						m.Set(w, r, j, float64(r+j))
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				row := make([]float64, spanBenchCols)
				for r := 0; r < spanBenchRows; r++ {
					for j := range row {
						row[j] = float64(r + j)
					}
					m.SetRow(w, r, row)
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpanSweep measures a read-modify-write sweep over the whole
// matrix: elementwise Get/Set against Row/SetRow spans.
func BenchmarkSpanSweep(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				for r := 0; r < spanBenchRows; r++ {
					for j := 0; j < spanBenchCols; j++ {
						m.Set(w, r, j, m.Get(w, r, j)+1)
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				row := make([]float64, spanBenchCols)
				for r := 0; r < spanBenchRows; r++ {
					m.Row(w, r, row)
					for j := range row {
						row[j]++
					}
					m.SetRow(w, r, row)
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpanFill measures initializing the matrix to a constant:
// elementwise stores against one FillF64 per row.
func BenchmarkSpanFill(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				for r := 0; r < spanBenchRows; r++ {
					for j := 0; j < spanBenchCols; j++ {
						m.Set(w, r, j, 1)
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				for r := 0; r < spanBenchRows; r++ {
					w.FillF64(m.At(r, 0), spanBenchCols, 1)
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpanSORRow measures the SOR inner kernel — a five-point
// red-black relaxation over one row — in its original elementwise form
// and the rolling row-buffer form the application now uses.
func BenchmarkSpanSORRow(b *testing.B) {
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
				for r := 1; r < spanBenchRows-1; r++ {
					for j := 1 + r%2; j < spanBenchCols-1; j += 2 {
						v := 0.25 * (m.Get(w, r-1, j) + m.Get(w, r+1, j) +
							m.Get(w, r, j-1) + m.Get(w, r, j+1))
						m.Set(w, r, j, v)
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster, m := spanBenchCluster(b)
			if _, err := cluster.Run(func(w cvm.Worker) {
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
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
