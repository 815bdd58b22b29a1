package trace

import (
	"bytes"
	"slices"
	"testing"

	"cvm/internal/sim"
)

// orderShapes are recorders shaped to stress the per-ring repair and the
// merge: no order to lean on, no order at all between nodes, nodes with
// nothing, rings that wrapped, times below zero.
func orderShapes() map[string]*Recorder {
	reversed := NewRecorder(1, 1, 0) // past the repair budget, ties in fours: the sort takes over
	for i := 0; i < 100_000; i++ {
		reversed.Emit(Event{T: sim.Time((100_000 - i) / 4), Kind: Kind(i % int(numKinds)), Aux: int64(i)})
	}
	tied := NewRecorder(8, 2, 0) // every event at one T: Seq alone orders them
	for i := 0; i < 5000; i++ {
		n := int32(i * 5 % 8)
		tied.Emit(Event{T: 7, Kind: Kind(i % int(numKinds)), Node: n, Thread: 2 * n, Aux: int64(i)})
	}
	sparse := NewRecorder(1024, 1, 0) // three of 1,024 rings hold anything
	for i := 0; i < 3000; i++ {
		n := []int32{3, 500, 1023}[i%3]
		sparse.Emit(Event{T: sim.Time(i * 37 % 1001), Kind: Kind(i % int(numKinds)), Node: n, Thread: n, Aux: int64(i)})
	}
	negative := NewRecorder(4, 1, 0)
	for i := 0; i < 4000; i++ {
		n := int32(i % 4)
		negative.Emit(Event{T: sim.Time(-1_000_000 + i*250 - i%9*4000), Kind: Kind(i % int(numKinds)), Node: n, Thread: n, Aux: int64(i)})
	}
	return map[string]*Recorder{
		"reversed 100k-event ring":      reversed,
		"every event tied across 8":     tied,
		"1,024 nodes, most rings empty": sparse,
		"wrapped rings with drops":      synthRecorder(5, 2, 700, 20_000, false),
		"wrapped and scrambled":         synthRecorder(3, 1, 3*chunkEvents/2, 4*chunkEvents, true),
		"negative T":                    negative,
		"scaleout-shaped, 64 rings":     scaleoutShaped(30_000),
	}
}

// TestOrderMatchesReference holds the repair-and-merge order to the
// reference sort by (T, Seq) on every shape, through each consumer of
// the stream: Events and the Chrome export.
func TestOrderMatchesReference(t *testing.T) {
	for name, r := range orderShapes() {
		t.Run(name, func(t *testing.T) {
			want := eventsRef(r)
			if got := r.Events(); !slices.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				t.Fatalf("Events() differs from the reference sort at %d of %d events", i, len(want))
			}
			got, ref := chromeBytes(t, WriteChrome, r), chromeBytes(t, writeChromeRef, r)
			if !bytes.Equal(got, ref) {
				t.Fatalf("export differs from the reference writer's: %s", firstDiff(got, ref))
			}
		})
	}
}

// TestOrderStopsEarly: a consumer that stops mid-stream stops the merge.
func TestOrderStopsEarly(t *testing.T) {
	r := synthRecorder(4, 1, 0, 1000, false)
	n := 0
	for range r.ordered() {
		if n++; n == 10 {
			break
		}
	}
	if n != 10 {
		t.Fatalf("read %d events, want 10", n)
	}
}
