package netsim

import (
	"math/bits"
	"testing"

	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// faultCounts are the drops and duplications a run's events record.
type faultCounts struct{ dropped, dupped int }

// sendN pushes n messages 0→1 through the network from a task and
// returns, per message, when its handler ran, the faults injected, and
// the network. Every message must reach its handler exactly once.
func sendN(t *testing.T, f *FaultParams, n int) (delivered []sim.Time, fs faultCounts, nw *Network) {
	t.Helper()
	eng := sim.NewEngine()
	nw = New(eng, 2, DefaultParams())
	nw.SetFaults(f)
	var log eventLog
	nw.SetTracer(&log)
	p := eng.AddProc(0)
	eng.AddProc(0)
	delivered = make([]sim.Time, n)
	eng.Spawn(p, "sender", func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			nw.SendFromTask(tk, 0, 1, ClassDiff, 64, func() {
				if delivered[i] != 0 {
					t.Errorf("message %d delivered twice", i)
				}
				delivered[i] = eng.Now()
			})
			tk.Advance(10 * us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, at := range delivered {
		if at == 0 {
			t.Fatalf("message %d never delivered", i)
		}
	}
	for _, e := range log {
		switch e.Kind {
		case trace.KindMsgDrop:
			fs.dropped++
		case trace.KindMsgDup:
			fs.dupped++
		}
	}
	return delivered, fs, nw
}

// TestFaultsDropRate: a drop is a late delivery. Every message arrives
// once; a message whose attempts dropped k times arrives RTO·(2^k−1)
// after its fault-free time, the backoff of k retransmissions; about a
// tenth of first attempts drop.
func TestFaultsDropRate(t *testing.T) {
	f := &FaultParams{Seed: 42}
	for c := range f.Drop {
		f.Drop[c] = 0.1
	}
	const n = 2000
	base, _, _ := sendN(t, nil, n)
	delivered, fs, nw := sendN(t, f, n)
	late, drops := 0, 0
	for i := range delivered {
		d := delivered[i] - base[i]
		k := bits.Len64(uint64(d / DefaultRTO)) // d = RTO·(2^k−1)
		if DefaultRTO<<k-DefaultRTO != d {
			t.Fatalf("message %d arrived %v late, want RTO·(2^k−1) with RTO %v", i, d, DefaultRTO)
		}
		if k > 0 {
			late++
		}
		drops += k
	}
	if drops != fs.dropped {
		t.Errorf("backoffs account for %d drops, the trace has %d", drops, fs.dropped)
	}
	if got := nw.FaultCounts(0).Retransmits; got != int64(drops) {
		t.Errorf("sender retransmits = %d, want one a drop (%d)", got, drops)
	}
	if got := nw.Stats().Msgs[ClassDiff]; got != n+int64(drops) {
		t.Errorf("traffic = %d messages, want %d sends + %d dropped attempts", got, n, drops)
	}
	// Crude rate check: 10% ± 5 points of first attempts over 2000 trials.
	if rate := float64(late) / n; rate < 0.05 || rate > 0.15 {
		t.Errorf("first-attempt drop rate = %.3f, want ≈0.10", rate)
	}
}

// TestFaultsDupRate: a duplicate is wasted wire. Every message is
// handled once; the replicas, about a fifth, cost traffic and count as
// suppressed at the receiver.
func TestFaultsDupRate(t *testing.T) {
	f := &FaultParams{Seed: 7}
	for c := range f.Dup {
		f.Dup[c] = 0.2
	}
	const n = 1000
	_, fs, nw := sendN(t, f, n)
	if rate := float64(fs.dupped) / n; rate < 0.1 || rate > 0.3 {
		t.Errorf("dup rate = %.3f, want ≈0.20", rate)
	}
	if got := nw.Stats().Msgs[ClassDiff]; got != n+int64(fs.dupped) {
		t.Errorf("traffic = %d messages, want %d sends + %d replicas", got, n, fs.dupped)
	}
	if got := nw.FaultCounts(1).DupsSuppressed; got != int64(fs.dupped) {
		t.Errorf("receiver suppressed %d, want %d replicas", got, fs.dupped)
	}
	if got := nw.FaultCounts(0); got != (FaultCounts{}) {
		t.Errorf("sender fault counts = %+v, want none", got)
	}
}

// TestFaultsDefaults: a plan that leaves RTO and MaxRetries zero gets
// the defaults, in the network's own copy — the caller's plan may be
// shared and is not written.
func TestFaultsDefaults(t *testing.T) {
	f := &FaultParams{Seed: 1, Drop: [NumClasses]float64{0.5}}
	nw := New(sim.NewEngine(), 2, DefaultParams())
	nw.SetFaults(f)
	if nw.faults.RTO != DefaultRTO || nw.faults.MaxRetries != DefaultMaxRetries {
		t.Errorf("RTO/MaxRetries = %v/%d, want %v/%d", nw.faults.RTO, nw.faults.MaxRetries, DefaultRTO, DefaultMaxRetries)
	}
	if f.RTO != 0 || f.MaxRetries != 0 {
		t.Errorf("SetFaults wrote the caller's plan: %+v", f)
	}
}

func TestFaultsReorderOvertakes(t *testing.T) {
	f := &FaultParams{Seed: 3, ReorderDelay: 5 * sim.Millisecond}
	for c := range f.Reorder {
		f.Reorder[c] = 0.2
	}
	eng := sim.NewEngine()
	nw := New(eng, 2, DefaultParams())
	nw.SetFaults(f)
	p := eng.AddProc(0)
	eng.AddProc(0)
	var order []int // send indices in delivery order
	eng.Spawn(p, "sender", func(tk *sim.Task) {
		for i := 0; i < 200; i++ {
			i := i
			nw.SendFromTask(tk, 0, 1, ClassDiff, 64, func() {
				order = append(order, i)
			})
			tk.Advance(10 * us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// A delayed message must be overtaken: later send indices deliver first.
	overtakes := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			overtakes++
		}
	}
	if overtakes == 0 {
		t.Error("reordered messages never overtook — deliveries arrived in send order")
	}
}

func TestFaultsJitterDelays(t *testing.T) {
	base, _, _ := sendN(t, nil, 50)
	jit, _, _ := sendN(t, &FaultParams{Seed: 9, JitterMax: sim.Millisecond}, 50)
	if len(base) != len(jit) {
		t.Fatalf("jitter changed delivery count: %d vs %d", len(jit), len(base))
	}
	later := 0
	for i := range base {
		if jit[i] > base[i] {
			later++
		}
	}
	if later == 0 {
		t.Error("1ms jitter delayed no deliveries")
	}
}

func TestFaultsDeterministic(t *testing.T) {
	f := &FaultParams{Seed: 11, JitterMax: 500 * us, ReorderDelay: sim.Millisecond}
	for c := 0; c < NumClasses; c++ {
		f.Drop[c], f.Dup[c], f.Reorder[c] = 0.05, 0.05, 0.05
	}
	d1, fs1, _ := sendN(t, f, 500)
	d2, fs2, _ := sendN(t, f, 500)
	if fs1 != fs2 {
		t.Fatalf("fault stats diverged: %+v vs %+v", fs1, fs2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delivery %d diverged: %v vs %v", i, d1[i], d2[i])
		}
	}
	// A different seed must produce a different schedule.
	g := *f
	g.Seed = 12
	_, fs3, _ := sendN(t, &g, 500)
	if fs3 == fs1 {
		t.Error("different seeds produced identical fault stats (suspicious)")
	}
}

func TestFaultsInactiveIsByteIdentical(t *testing.T) {
	// A FaultParams with every dimension zero must leave the network on
	// the reliable fast path: identical deliveries and zero fault stats.
	base, _, _ := sendN(t, nil, 100)
	zero, fs, _ := sendN(t, &FaultParams{Seed: 99}, 100)
	if fs != (faultCounts{}) {
		t.Errorf("inactive faults injected: %+v", fs)
	}
	for i := range base {
		if base[i] != zero[i] {
			t.Fatalf("delivery %d diverged: %v vs %v", i, base[i], zero[i])
		}
	}
}

func TestFaultsValidate(t *testing.T) {
	bad := []FaultParams{
		{Drop: [NumClasses]float64{1.5}},
		{Dup: [NumClasses]float64{0, -0.1}},
		{JitterMax: -1},
		{Reorder: [NumClasses]float64{0.1}}, // no ReorderDelay
		{RTO: -1},
		{MaxRetries: -1},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%d) accepted bad params %+v", i, f)
		}
	}
	good := FaultParams{Drop: [NumClasses]float64{0.5, 1, 0}, JitterMax: us}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected good params: %v", err)
	}
}

func TestFaultsTraceAndCounters(t *testing.T) {
	eng := sim.NewEngine()
	nw := New(eng, 2, DefaultParams())
	rec := trace.NewRecorder(2, 1, 0)
	reg := metrics.NewRegistry()
	var classes []string
	for _, c := range Classes() {
		classes = append(classes, c.String())
	}
	reg.Configure(2, classes)
	nw.SetTracer(trace.Tee(rec, reg))
	f := &FaultParams{Seed: 5}
	for c := 0; c < NumClasses; c++ {
		f.Drop[c], f.Dup[c] = 0.2, 0.2
	}
	nw.SetFaults(f)
	p := eng.AddProc(0)
	eng.AddProc(0)
	eng.Spawn(p, "sender", func(tk *sim.Task) {
		for i := 0; i < 200; i++ {
			nw.SendFromTask(tk, 0, 1, ClassLock, 16, func() {})
			tk.Advance(us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	for n := 0; n < 2; n++ {
		for _, e := range rec.NodeEvents(n) {
			kinds[e.Kind]++
		}
	}
	dropped, dupped := kinds[trace.KindMsgDrop], kinds[trace.KindMsgDup]
	if dropped == 0 || dupped == 0 {
		t.Fatalf("expected drops and dups, got %d and %d", dropped, dupped)
	}
	// Each of the 200 messages is sent once through, each replica once
	// more; every dropped attempt is retransmitted; each replica is
	// suppressed at the receiver.
	if got, want := kinds[trace.KindMsgSend], 200+dupped; got != want {
		t.Errorf("msg.send events = %d, want %d: 200 messages, %d duplicated", got, want, dupped)
	}
	if kinds[trace.KindMsgDeliver] != kinds[trace.KindMsgSend] {
		t.Errorf("send events %d != deliver events %d", kinds[trace.KindMsgSend], kinds[trace.KindMsgDeliver])
	}
	if kinds[trace.KindRetransmit] != dropped || kinds[trace.KindDupSuppress] != dupped {
		t.Errorf("retransmit/dup-suppress events = %d/%d, want %d/%d",
			kinds[trace.KindRetransmit], kinds[trace.KindDupSuppress], dropped, dupped)
	}
	if got, want := nw.Stats().Msgs[ClassLock], int64(200+dropped+dupped); got != want {
		t.Errorf("traffic = %d messages, want %d: every attempt and replica", got, want)
	}
	snap := reg.Snapshot()
	if int(snap.NetDropped) != dropped || int(snap.NetDuplicated) != dupped {
		t.Errorf("counters = %d/%d, want %d/%d", snap.NetDropped, snap.NetDuplicated, dropped, dupped)
	}
	if int(snap.Retransmits) != dropped || int(snap.DupSuppressed) != dupped {
		t.Errorf("retransmit/dup-suppress counters = %d/%d, want %d/%d", snap.Retransmits, snap.DupSuppressed, dropped, dupped)
	}
	if r, d := nw.FaultCounts(0).Retransmits, nw.FaultCounts(1).DupsSuppressed; r != int64(dropped) || d != int64(dupped) {
		t.Errorf("network retransmits/suppressed = %d/%d, want %d/%d", r, d, dropped, dupped)
	}
	// Egress queueing is one observation a message, on its first
	// attempt: a retransmission or a duplicate's replica never queued.
	if got := snap.Net.EgressWait[ClassLock].Count; got != 200 {
		t.Errorf("egress waits observed = %d, want one for each of the 200 messages", got)
	}
}
