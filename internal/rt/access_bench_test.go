package rt

import (
	"testing"

	"cvm"
	"cvm/internal/core"
)

// onNode0 runs body on node 0's one thread of a two-node loopback
// cluster over pages 4 KB pages at base; node 1 only serves. Even pages
// are homed at node 0, odd pages at node 1.
func onNode0(tb testing.TB, pages int, body func(w *Worker, base core.Addr)) {
	c, err := NewCluster(DefaultConfig(2, 1))
	if err != nil {
		tb.Fatal(err)
	}
	base := c.MustAlloc("pages", pages*4096)
	_, err = c.RunLoopback(func(w cvm.Worker) {
		if w.NodeID() == 0 {
			body(w.(*Worker), base)
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkWorkerAccess prices the local access path in ns per 8-byte
// word: a scalar sweep over 64 pages at the master and over 64 in the
// cache, span reads of 3 words (watersp's, 44 % of the benchmark's pass) and of a whole page, and
// span writes of a whole page to a clean cached page (which twins it; the
// flush that cleans the 64 pages again is not timed) and to a dirty one.
func BenchmarkWorkerAccess(b *testing.B) {
	const pageWords, remotes = 512, 64
	page := func(base core.Addr, pg int) core.Addr { return base + core.Addr(pg*4096) }
	for _, bc := range []struct {
		name  string
		words int
		op    func(w *Worker, base core.Addr, i int, buf []float64)
	}{
		{"ReadF64/home", 1, func(w *Worker, base core.Addr, i int, _ []float64) {
			sinkF64 = w.ReadF64(page(base, 2*(i/pageWords%remotes)) + core.Addr(i%pageWords*8))
		}},
		{"ReadF64/cached", 1, func(w *Worker, base core.Addr, i int, _ []float64) {
			sinkF64 = w.ReadF64(page(base, 2*(i/pageWords%remotes)+1) + core.Addr(i%pageWords*8))
		}},
		{"ReadRangeF64/3", 3, func(w *Worker, base core.Addr, i int, buf []float64) {
			w.ReadRangeF64(page(base, 1)+core.Addr(i%(pageWords-3)*8), buf)
		}},
		{"ReadRangeF64/512", pageWords, func(w *Worker, base core.Addr, i int, buf []float64) {
			w.ReadRangeF64(page(base, 1), buf)
		}},
		{"WriteRangeF64/first-touch", pageWords, func(w *Worker, base core.Addr, i int, buf []float64) {
			if pg := i % remotes; pg == 0 && i > 0 {
				b.StopTimer()
				w.n.flushAll(w)
				b.StartTimer()
			}
			buf[0] = float64(i)
			w.WriteRangeF64(page(base, 2*(i%remotes)+1), buf)
		}},
		{"WriteRangeF64/warm", pageWords, func(w *Worker, base core.Addr, i int, buf []float64) {
			w.WriteRangeF64(page(base, 1), buf)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			onNode0(b, 2*remotes, func(w *Worker, base core.Addr) {
				buf := make([]float64, bc.words)
				for pg := 0; pg < 2*remotes; pg++ { // touch every page: the remote ones are cached now
					w.ReadF64(page(base, pg))
				}
				w.WriteF64(page(base, 1), 1) // and twin the warm one
				if bc.name == "WriteRangeF64/first-touch" {
					w.n.flushAll(w)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bc.op(w, base, i, buf)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.words), "ns/word")
			})
		})
	}
}

var sinkF64 float64

// faultOnce takes one remote fault: read a word of node 1's page, then
// drop the cache as an acquire would.
func faultOnce(w *Worker, base core.Addr) {
	sinkF64 = w.ReadF64(base + 4096)
	w.n.acquireSync(w)
}

// flushOnce writes one word of node 1's cached page and flushes the diff
// as a release would.
func flushOnce(w *Worker, base core.Addr, v float64) {
	w.WriteF64(base+4096, v)
	w.n.flushAll(w)
}

// BenchmarkRemoteFault is one remote fault end to end on loopback —
// request, the home's reply, install, invalidate — with the allocations
// of both nodes.
func BenchmarkRemoteFault(b *testing.B) {
	onNode0(b, 2, func(w *Worker, base core.Addr) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			faultOnce(w, base)
		}
	})
}

// BenchmarkFlushDiff is one one-word diff end to end on loopback — twin,
// the encoding from page and twin, the home's apply from the wire, its
// ack.
func BenchmarkFlushDiff(b *testing.B) {
	onNode0(b, 2, func(w *Worker, base core.Addr) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flushOnce(w, base, float64(i))
		}
	})
}
