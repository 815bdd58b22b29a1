package trace

import (
	"io"
	"strconv"
	"testing"

	"cvm/internal/sim"
)

// The per-kernel numbers beside the benchmark's trace.chrome_ns_per_event:
// what one event costs to record, to put into (T, Seq) order and to
// export, on streams nearly ordered like a run's.

const benchEvents = 100_000

func perEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// benchStreams are the export's two shapes: synthRecorder's 8x4 stream,
// and 64 rings displaced like scaleout 64x1's.
func benchStreams() []struct {
	name string
	r    *Recorder
} {
	return []struct {
		name string
		r    *Recorder
	}{
		{"8x4", synthRecorder(8, 4, 0, benchEvents, false)},
		{"64x1-scaleout", scaleoutShaped(benchEvents)},
	}
}

// scaleoutShaped records n events on 64 one-thread nodes the way
// scaleout 64x1 small does: a clock that creeps forward, every node in
// turn at random, and one event in four a delivery recorded at its send
// with a T up to 640 µs later. A ring's events then move a median 13
// places and a p99 86 to come into T order (the run's: 12 and 82).
func scaleoutShaped(n int) *Recorder {
	r := NewRecorder(64, 1, 0)
	x := uint64(99)
	rnd := func(mod int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(mod))
	}
	var clock sim.Time
	for i := 0; i < n; i++ {
		clock += sim.Time(rnd(200))
		node := int32(rnd(64))
		e := Event{T: clock, Kind: Kind(i % int(numKinds)), Node: node, Thread: node, Aux: int64(i)}
		if rnd(4) == 0 {
			e.Kind = KindMsgDeliver
			e.T += sim.Time(rnd(640_000))
		}
		r.Emit(e)
	}
	return r
}

func BenchmarkWriteChrome(b *testing.B) {
	for _, s := range benchStreams() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := WriteChrome(io.Discard, s.r); err != nil {
					b.Fatal(err)
				}
			}
			perEvent(b, benchEvents)
		})
	}
}

// BenchmarkRecorderEmit also reports what a retained event costs.
func BenchmarkRecorderEmit(b *testing.B) {
	b.ReportAllocs()
	var r *Recorder
	for i := 0; i < b.N; i++ {
		r = NewRecorder(8, 4, 0)
		for j := 0; j < benchEvents; j++ {
			r.Emit(Event{T: sim.Time(j), Kind: KindMsgSend, Node: int32(j & 7)})
		}
	}
	perEvent(b, benchEvents)
	b.ReportMetric(float64(retainedBytes(r))/benchEvents, "B/event")
}

func BenchmarkRecorderEvents(b *testing.B) {
	for _, nodes := range []int{8, 64} {
		b.Run(strconv.Itoa(nodes), func(b *testing.B) {
			r := synthRecorder(nodes, 1, 0, benchEvents, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := len(r.Events()); got != benchEvents {
					b.Fatalf("%d events, want %d", got, benchEvents)
				}
			}
			perEvent(b, benchEvents)
		})
	}
}

func BenchmarkRecorderOrder(b *testing.B) {
	for _, s := range benchStreams() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				for range s.r.ordered() {
					n++
				}
				if n != benchEvents {
					b.Fatalf("%d events, want %d", n, benchEvents)
				}
			}
			perEvent(b, benchEvents)
		})
	}
}
