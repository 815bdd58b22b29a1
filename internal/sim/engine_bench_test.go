package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventQueue measures the engine's event heap under a steady
// schedule/dispatch load: the pattern message deliveries produce (push at
// now+latency, pop in time order).
func BenchmarkEventQueue(b *testing.B) {
	var q eventQueue
	nop := func() {}
	// Keep a standing population of 256 events, pushing one pseudo-random
	// future event per pop.
	x := uint64(1)
	for i := 0; i < 256; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		q.push(event{at: Time(x >> 40), seq: uint64(i), fn: nop})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		x = x*6364136223846793005 + 1442695040888963407
		ev.at += Time(x >> 40)
		ev.seq = uint64(256 + i)
		q.push(ev)
	}
}

// BenchmarkEngineSpawnRun measures end-to-end engine dispatch: tasks that
// repeatedly advance and yield through the scheduler.
func BenchmarkEngineSpawnRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine()
		p := eng.AddProc(8 * Microsecond)
		for t := 0; t < 4; t++ {
			eng.Spawn(p, "t", func(tk *Task) {
				for j := 0; j < 100; j++ {
					tk.Advance(Microsecond)
					tk.Yield()
				}
			})
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchScan measures the cost of choosing the next processor
// on a populated engine — 16 procs (the largest paper configuration) and
// 192 (the scaleout point the benchmark times) — whose tasks advance in
// small steps, so nearly every Run-loop turn is one dispatch: the root of
// the runnable-proc heap, its two children for the horizon, one sift
// after the slice, and one coroutine round trip. (The name is from the
// O(P) scan over all procs this replaced; see dispatch_ref_test.go.)
func BenchmarkDispatchScan(b *testing.B) {
	for _, procs := range []int{16, 192} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng := NewEngine()
				for pi := 0; pi < procs; pi++ {
					p := eng.AddProc(8 * Microsecond)
					eng.Spawn(p, "t", func(tk *Task) {
						for j := 0; j < 200; j++ {
							tk.Advance(Microsecond)
						}
					})
				}
				if err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
