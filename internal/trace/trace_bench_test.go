package trace

import (
	"io"
	"strconv"
	"testing"

	"cvm/internal/sim"
)

// The per-kernel numbers beside the benchmark's trace.chrome_ns_per_event:
// what one event costs to record, to put into (T, Seq) order and to
// export. The stream is synthRecorder's, nearly ordered like a run's.

const benchEvents = 100_000

func perEvent(b *testing.B, events int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

func BenchmarkWriteChrome(b *testing.B) {
	r := synthRecorder(8, 4, 0, benchEvents, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChrome(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
	perEvent(b, benchEvents)
}

func BenchmarkRecorderEmit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRecorder(8, 4, 0)
		for j := 0; j < benchEvents; j++ {
			r.Emit(Event{T: sim.Time(j), Kind: KindMsgSend, Node: int32(j & 7)})
		}
	}
	perEvent(b, benchEvents)
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
