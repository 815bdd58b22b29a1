package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cvm/internal/sim"
)

// synthRecorder fills a recorder with n events shaped like a run's: a
// clock that starts below zero and creeps forward, every Kind in turn
// (one past the last included), handler-context events (Thread -1),
// known and unknown classes and reasons, pages and sync ids from small
// ranges so starts pair with resolves and some stay open, and every
// seventh event recorded early with a future T, the way a delivery is.
// With scramble set T is random instead: no order at all to lean on.
func synthRecorder(nodes, threads, limit, n int, scramble bool) *Recorder {
	r := NewRecorder(nodes, threads, limit)
	x := uint64(12345)
	rnd := func(mod int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(mod))
	}
	clock := sim.Time(-3500)
	for i := 0; i < n; i++ {
		clock += sim.Time(rnd(2000))
		node := rnd(nodes)
		e := Event{
			T:      clock,
			Kind:   Kind(i % (int(numKinds) + 1)),
			Node:   int32(node),
			Thread: int32(node*threads + rnd(threads)),
			Page:   int32(rnd(5)),
			Sync:   int32(rnd(4)),
			Peer:   int32(rnd(nodes)),
			Arg:    int64(rnd(3)),
			Aux:    int64(rnd(2)),
		}
		switch e.Kind {
		case KindBarrierArrive:
			e.Aux = int64(rnd(3)) // global, local, reduction
		case KindLockAcquire:
			e.Aux = int64(rnd(4)) // cached token, local queue, 2 or 3 hops
		case KindThreadBlock, KindThreadUnblock:
			e.Arg = []int64{1, 2, 3, 9}[rnd(4)]
		case KindMsgSend, KindMsgDeliver, KindMsgDrop, KindMsgDup, KindRetransmit, KindDupSuppress:
			e.Sync = []int32{0, 1, 2, 7}[rnd(4)]
			e.Aux = int64(i)
		}
		if rnd(5) == 0 {
			e.Thread = -1
		}
		if i%7 == 0 {
			e.T += 500 * sim.Microsecond
		}
		if scramble {
			e.T = sim.Time(rnd(1_000_000))
		}
		r.Emit(e)
	}
	return r
}

func chromeBytes(t testing.TB, write func(io.Writer, *Recorder) error, r *Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := write(&b, r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWriteChromeMatchesReference is the differential oracle on
// synthetic streams: every Kind, unbounded and wrapped rings (one bound
// past a chunk), nearly ordered and scrambled timestamps.
func TestWriteChromeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name            string
		nodes, limit, n int
		scramble        bool
	}{
		{name: "unbounded", nodes: 3, n: 6000},
		{name: "wrapped", nodes: 3, limit: 500, n: 6000},
		{name: "wrapped past a chunk", nodes: 2, limit: chunkEvents + 700, n: 4 * chunkEvents},
		{name: "scrambled", nodes: 4, n: 6000, scramble: true},
		{name: "one node", nodes: 1, n: 300},
		{name: "empty", nodes: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := synthRecorder(tc.nodes, 2, tc.limit, tc.n, tc.scramble)
			if tc.limit > 0 && r.Dropped() == 0 {
				t.Fatal("the bound dropped nothing: the ring never wrapped")
			}
			if got, want := r.Events(), eventsRef(r); !slices.Equal(got, want) {
				t.Fatalf("Events() differs from the reference sort (%d against %d events)", len(got), len(want))
			}
			got, want := chromeBytes(t, WriteChrome, r), chromeBytes(t, writeChromeRef, r)
			if !bytes.Equal(got, want) {
				t.Fatalf("export differs from the reference writer's (%d against %d bytes): %s",
					len(got), len(want), firstDiff(got, want))
			}
		})
	}
}

// firstDiff quotes the first line two exports disagree on.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n got  " + g[i] + "\n want " + w[i]
		}
	}
	return "one is a prefix of the other"
}

// TestRingBoundAcrossChunks wraps a ring whose bound is not a multiple
// of the chunk length and checks what survives, in which order.
func TestRingBoundAcrossChunks(t *testing.T) {
	const limit, n = chunkEvents + 100, 3*chunkEvents + 17
	r := NewRecorder(1, 1, limit)
	for i := 0; i < n; i++ {
		r.Emit(Event{T: sim.Time(i)})
	}
	if r.Len() != limit || r.Dropped() != n-limit {
		t.Fatalf("Len %d Dropped %d, want %d and %d", r.Len(), r.Dropped(), limit, n-limit)
	}
	for i, e := range r.NodeEvents(0) {
		if want := sim.Time(n - limit + i); e.T != want {
			t.Fatalf("event %d has T=%v, want %v (oldest dropped first, emission order kept)", i, e.T, want)
		}
	}
}

// TestWriteChromeFile: the line naming the file is the one place a
// bounded trace says it is partial, and a path that cannot be created is
// an error with nothing printed.
func TestWriteChromeFile(t *testing.T) {
	r := synthRecorder(2, 2, 500, 3000, false)
	path := filepath.Join(t.TempDir(), "t.json")
	var out strings.Builder
	if err := WriteChromeFile(&out, path, r); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("wrote %d trace events to %s (load at ui.perfetto.dev); the ring bound dropped the %d oldest\n",
		r.Len(), path, r.Dropped())
	if r.Dropped() == 0 || out.String() != want {
		t.Errorf("WriteChromeFile printed %q, want %q", out.String(), want)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, chromeBytes(t, WriteChrome, r)) {
		t.Errorf("the file does not hold WriteChrome's export (err %v)", err)
	}

	out.Reset()
	if err := WriteChromeFile(&out, filepath.Join(t.TempDir(), "missing", "t.json"), r); err == nil || out.Len() > 0 {
		t.Errorf("an uncreatable path: err %v, printed %q", err, out.String())
	}
}

// TestChromeOpenTailDeterministic cuts a trace with three faults and two
// lock requests open. The parent wrote them by ranging over a map, in a
// different order each time; they must come out in (T, Seq) order, the
// same bytes on every export.
func TestChromeOpenTailDeterministic(t *testing.T) {
	r := NewRecorder(2, 2, 0)
	r.Emit(Event{T: 900, Kind: KindFaultStart, Node: 1, Thread: 2, Page: 7})
	r.Emit(Event{T: 300, Kind: KindLockRequest, Node: 0, Thread: 1, Sync: 4})
	r.Emit(Event{T: 300, Kind: KindFaultStart, Node: 0, Thread: 0, Page: 9})
	r.Emit(Event{T: 300, Kind: KindFaultStart, Node: 1, Thread: 3, Page: 2})
	r.Emit(Event{T: 100, Kind: KindLockRequest, Node: 1, Thread: 2, Sync: 1})
	first := chromeBytes(t, WriteChrome, r)
	for i := 1; i < 20; i++ {
		if got := chromeBytes(t, WriteChrome, r); !bytes.Equal(got, first) {
			t.Fatalf("export %d differs from the first:\n%s", i, firstDiff(got, first))
		}
	}
	var tail []string
	for _, line := range strings.Split(string(first), "\n") {
		if strings.Contains(line, "(un") {
			tail = append(tail, line[:strings.Index(line, `,"cat"`)])
		}
	}
	want := []string{
		`{"name":"fault p9 (unresolved)"`, `{"name":"fault p2 (unresolved)"`, `{"name":"fault p7 (unresolved)"`,
		`{"name":"lock 1 request (ungranted)"`, `{"name":"lock 4 request (ungranted)"`,
	}
	if !slices.Equal(tail, want) {
		t.Fatalf("open tail is\n%s\nwant\n%s", strings.Join(tail, "\n"), strings.Join(want, "\n"))
	}
}

// TestTraceAllocCaps holds the observation path's allocation diet in
// exact counts: the writer allocates per export (its buffer, the sorted view,
// the open-interval maps), not per event, and a recorder past its first
// chunk allocates one chunk per chunkEvents events and nothing else.
func TestTraceAllocCaps(t *testing.T) {
	const events = 10_000
	export := func(n int) float64 {
		r := synthRecorder(4, 2, 0, n, false)
		return testing.AllocsPerRun(5, func() { WriteChrome(io.Discard, r) })
	}
	got, more := export(events), export(4*events)
	t.Logf("WriteChrome: %.0f allocs for %d events, %.0f for %d", got, events, more, 4*events)
	if got > 0.01*events {
		t.Errorf("WriteChrome: %.0f allocs for %d events, cap %.0f (0.01 an event)", got, events, 0.01*events)
	}
	if more > got+20 {
		t.Errorf("WriteChrome: %.0f allocs for %d events but %.0f for %d: something allocates per event", got, events, more, 4*events)
	}

	rec := NewRecorder(1, 1, 0)
	fill := func() {
		for i := 0; i < chunkEvents; i++ {
			rec.Emit(Event{T: sim.Time(i)})
		}
	}
	fill() // the first chunk grows by append
	// 1 chunk a round, and the chunk list doubling 6 times in 64 rounds.
	if got := testing.AllocsPerRun(64, fill); got > 1.1 {
		t.Errorf("Recorder.Emit: %.2f allocs per %d events, cap 1.1", got, chunkEvents)
	}

	// Two chunks' worth a run: AllocsPerRun rounds down, and a full ring
	// that allocated a block a chunk would read 0 a single event.
	bounded := NewRecorder(1, 1, 1000)
	emit := func() {
		for i := 0; i < 2*chunkEvents; i++ {
			bounded.Emit(Event{})
		}
	}
	for i := 0; i < 1000; i++ {
		bounded.Emit(Event{})
	}
	if got := testing.AllocsPerRun(20, emit); got != 0 {
		t.Errorf("Recorder.Emit on a full ring: %.2f allocs per %d events, want 0", got, 2*chunkEvents)
	}
}

// TestNumbersMatchReference: every power of ten, both signs and the
// int64 extremes come out as strconv and the reference's %d.%03d write
// them.
func TestNumbersMatchReference(t *testing.T) {
	var vs []int64
	for p := int64(1); p <= 1e18; p *= 10 {
		vs = append(vs, p-1, p, p+1, -p+1, -p, -p-1)
	}
	vs = append(vs, 0, 999_999_999, math.MaxInt64, math.MinInt64+1, math.MinInt64)
	for _, v := range vs {
		c := &chromeWriter{}
		if got, want := string(c.int(v).buf), strconv.FormatInt(v, 10); got != want {
			t.Errorf("int(%d) = %s", v, got)
		}
		if v == math.MinInt64 {
			continue // no virtual time gets there, and -t overflows
		}
		c.buf = c.buf[:0]
		if got, want := string(c.usec(sim.Time(v)).buf), usecRef(sim.Time(v)); got != want {
			t.Errorf("usec(%d) = %s, want %s", v, got, want)
		}
	}
}
