package memsim

import "testing"

// Memory-access simulation dominates user-time charging: every shared
// read/write runs one Access. The sweep benchmark measures the
// contiguous fast path (typed-array traversals, page/twin copies); the
// strided and random benchmarks measure the full tag-array walk.

func benchmarkAccess(b *testing.B, next func(i int) uint64) {
	s := NewSystem(SP2Params())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(next(i))
	}
}

func BenchmarkAccessSweep(b *testing.B) {
	benchmarkAccess(b, func(i int) uint64 { return uint64(i%(1<<20)) * 8 })
}

func BenchmarkAccessStrided(b *testing.B) {
	benchmarkAccess(b, func(i int) uint64 { return uint64(i%(1<<14)) * 96 })
}

func BenchmarkAccessRandom(b *testing.B) {
	benchmarkAccess(b, func(i int) uint64 {
		x := uint64(i)*6364136223846793005 + 1442695040888963407
		return (x >> 11) % (1 << 20)
	})
}

func BenchmarkAccessRange(b *testing.B) {
	s := NewSystem(SP2Params())
	b.SetBytes(8 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccessRange(uint64(i%16)<<13, 8<<10)
	}
}

// BenchmarkAccessRangeResident re-sweeps one page that stays resident:
// every line is a cache hit, the hit path of the tag-array touch.
func BenchmarkAccessRangeResident(b *testing.B) {
	s := NewSystem(SP2Params())
	s.AccessRange(0, 8<<10)
	b.SetBytes(8 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AccessRange(0, 8<<10)
	}
}

// TestAccessDoesNotAllocate: every shared read and write runs one
// Access, so the sweep must stay allocation-free.
func TestAccessDoesNotAllocate(t *testing.T) {
	s := NewSystem(SP2Params())
	i := 0
	if got := testing.AllocsPerRun(1000, func() {
		s.Access(uint64(i%(1<<20)) * 8)
		i++
	}); got != 0 {
		t.Errorf("Access allocates %.0f times per call, want 0", got)
	}
}
