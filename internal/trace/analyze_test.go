package trace

import (
	"strings"
	"testing"

	"cvm/internal/sim"
)

func TestSummarizeQuantiles(t *testing.T) {
	samples := make([]sim.Time, 100)
	for i := range samples {
		samples[i] = sim.Time(i + 1) // 1..100
	}
	s := summarize(samples)
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	if s.P50 != 50 || s.P95 != 95 || s.P99 != 99 {
		t.Fatalf("p50/p95/p99 = %v/%v/%v, want 50/95/99", s.P50, s.P95, s.P99)
	}
	if s.Mean != 50 { // 5050/100 truncated
		t.Fatalf("mean = %v, want 50", s.Mean)
	}
	if (summarize(nil) != LatencyStats{}) {
		t.Fatal("empty sample set must summarize to zero stats")
	}
	one := summarize([]sim.Time{7})
	if one.P50 != 7 || one.P99 != 7 || one.Min != 7 || one.Max != 7 {
		t.Fatalf("single sample: %+v", one)
	}
}

func TestAnalyzeFaultPairing(t *testing.T) {
	us := sim.Microsecond
	r := Analyze([]Event{
		{T: 0, Kind: KindFaultStart, Node: 0, Page: 3},
		{T: 10 * us, Kind: KindFaultStart, Node: 1, Page: 3}, // other node, same page
		{T: 1100 * us, Dur: 1100 * us, Kind: KindFaultResolve, Node: 0, Page: 3},
		{T: 1200 * us, Dur: 1190 * us, Kind: KindFaultResolve, Node: 1, Page: 3},
	})
	if r.RemoteFault.Count != 2 {
		t.Fatalf("fault count = %d, want 2", r.RemoteFault.Count)
	}
	if r.RemoteFault.Min != 1100*us || r.RemoteFault.Max != 1190*us {
		t.Fatalf("fault min/max = %v/%v", r.RemoteFault.Min, r.RemoteFault.Max)
	}
}

func TestAnalyzeLockHopClassification(t *testing.T) {
	us := sim.Microsecond
	r := Analyze([]Event{
		// Node 1: request granted with no manager forward → 2-hop.
		{T: 0, Kind: KindLockRequest, Node: 1, Sync: 0},
		{T: 937 * us, Dur: 937 * us, Kind: KindLockAcquire, Node: 1, Sync: 0, Aux: 2},
		// Node 2: manager (node 0) forwarded its request → 3-hop.
		{T: 2000 * us, Kind: KindLockRequest, Node: 2, Sync: 0},
		{T: 2400 * us, Kind: KindLockForward, Node: 0, Sync: 0, Peer: 1, Arg: 2},
		{T: 3382 * us, Dur: 1382 * us, Kind: KindLockAcquire, Node: 2, Sync: 0, Aux: 3},
		// Local acquires never enter the histograms: the cached token and
		// a local-queue wait.
		{T: 4000 * us, Kind: KindLockAcquire, Node: 2, Sync: 0},
		{T: 4100 * us, Dur: 90 * us, Kind: KindLockAcquire, Node: 2, Sync: 0, Aux: 1},
	})
	if r.Lock2Hop.Count != 1 || r.Lock2Hop.P50 != 937*us {
		t.Fatalf("2-hop: %+v", r.Lock2Hop)
	}
	if r.Lock3Hop.Count != 1 || r.Lock3Hop.P50 != 1382*us {
		t.Fatalf("3-hop: %+v", r.Lock3Hop)
	}
	if r.LocalLockAcquires != 2 {
		t.Fatalf("local acquires = %d, want 2", r.LocalLockAcquires)
	}
}

func TestAnalyzeBarrierStall(t *testing.T) {
	us := sim.Microsecond
	r := Analyze([]Event{
		{T: 0, Kind: KindBarrierArrive, Node: 0, Sync: 7},
		{T: 100 * us, Kind: KindBarrierArrive, Node: 0, Sync: 7},
		{T: 500 * us, Kind: KindBarrierRelease, Node: 0, Sync: 7},
		// Local barrier on the same id accumulates separately via Aux.
		{T: 600 * us, Kind: KindBarrierArrive, Node: 1, Sync: 7, Aux: BarrierLocal},
		{T: 610 * us, Kind: KindBarrierRelease, Node: 1, Sync: 7, Aux: BarrierLocal},
		// A reduction's arrival on the same id has no release to end it.
		{T: 700 * us, Kind: KindBarrierArrive, Node: 0, Sync: 7, Aux: BarrierReduce},
	})
	if r.BarrierStall.Count != 2 || r.BarrierStall.Max != 500*us || r.BarrierStall.Min != 400*us {
		t.Fatalf("barrier stall: %+v", r.BarrierStall)
	}
	if r.LocalBarrierStall.Count != 1 || r.LocalBarrierStall.P50 != 10*us {
		t.Fatalf("local barrier stall: %+v", r.LocalBarrierStall)
	}
}

func TestAnalyzeMessagePairing(t *testing.T) {
	us := sim.Microsecond
	r := Analyze([]Event{
		{T: 0, Kind: KindMsgSend, Node: 0, Peer: 1, Aux: 1},
		{T: 10 * us, Kind: KindMsgSend, Node: 1, Peer: 0, Aux: 2},
		{T: 465 * us, Dur: 465 * us, Kind: KindMsgDeliver, Node: 1, Peer: 0, Aux: 1},
		{T: 475 * us, Dur: 465 * us, Kind: KindMsgDeliver, Node: 0, Peer: 1, Aux: 2},
	})
	if r.MsgLatency.Count != 2 || r.MsgLatency.P50 != 465*us {
		t.Fatalf("msg latency: %+v", r.MsgLatency)
	}
}

func TestReportWrite(t *testing.T) {
	rec := NewRecorder(1, 1, 0)
	rec.Emit(Event{T: 0, Kind: KindFaultStart, Page: 1})
	rec.Emit(Event{T: 1100 * sim.Microsecond, Dur: 1100 * sim.Microsecond, Kind: KindFaultResolve, Page: 1})
	var b strings.Builder
	if err := AnalyzeRecorder(rec).Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"remote fault", "937µs", "fault.start", "2 events"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
