package check_test

import (
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/trace"
)

// BenchmarkCheckerEmit feeds a recorded waternsq 8x4 stream to a fresh
// checker, and to the map-based reference it replaced, per iteration.
func BenchmarkCheckerEmit(b *testing.B) {
	const nodes, threads = 8, 4
	rec := trace.NewRecorder(nodes, threads, 0)
	cfg := cvm.DefaultConfig(nodes, threads)
	cfg.Tracer = rec
	if _, _, err := apps.RunConfig("waternsq", apps.SizeTest, cfg); err != nil {
		b.Fatal(err)
	}
	events := rec.Events()
	for _, c := range []struct {
		name string
		new  func() trace.Tracer
	}{
		{"checker", func() trace.Tracer { return check.New(nodes, threads) }},
		{"reference", func() trace.Tracer { return check.NewCheckerRef(nodes, threads) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := c.new()
				for _, e := range events {
					t.Emit(e)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}
