package netsim

import (
	"testing"

	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// faultCounts are the drops and duplications a run's events record.
type faultCounts struct{ dropped, dupped int }

// sendN pushes n messages 0→1 through the network from a task and
// returns the delivery times in handler order and the faults injected.
func sendN(t *testing.T, f *FaultParams, n int) (delivered []sim.Time, fs faultCounts) {
	t.Helper()
	eng := sim.NewEngine()
	nw := New(eng, 2, DefaultParams())
	nw.SetFaults(f)
	var log eventLog
	nw.SetTracer(&log)
	p := eng.AddProc(0)
	eng.AddProc(0)
	eng.Spawn(p, "sender", func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			nw.SendFromTask(tk, 0, 1, ClassDiff, 64, func() {
				delivered = append(delivered, eng.Now())
			})
			tk.Advance(10 * us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range log {
		switch e.Kind {
		case trace.KindMsgDrop:
			fs.dropped++
		case trace.KindMsgDup:
			fs.dupped++
		}
	}
	return delivered, fs
}

func TestFaultsDropRate(t *testing.T) {
	f := &FaultParams{Seed: 42}
	for c := range f.Drop {
		f.Drop[c] = 0.1
	}
	const n = 2000
	delivered, fs := sendN(t, f, n)
	if fs.dropped == 0 {
		t.Fatal("10% drop over 2000 messages dropped nothing")
	}
	if got := len(delivered) + fs.dropped; got != n {
		t.Errorf("delivered %d + dropped %d = %d, want %d", len(delivered), fs.dropped, got, n)
	}
	// Crude rate check: 10% ± 5 points over 2000 trials.
	rate := float64(fs.dropped) / n
	if rate < 0.05 || rate > 0.15 {
		t.Errorf("drop rate = %.3f, want ≈0.10", rate)
	}
}

func TestFaultsDupRate(t *testing.T) {
	f := &FaultParams{Seed: 7}
	for c := range f.Dup {
		f.Dup[c] = 0.2
	}
	const n = 1000
	delivered, fs := sendN(t, f, n)
	if fs.dupped == 0 {
		t.Fatal("20% dup over 1000 messages duplicated nothing")
	}
	if got := len(delivered) - fs.dupped; got != n {
		t.Errorf("delivered %d - dupped %d = %d, want %d", len(delivered), fs.dupped, got, n)
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
	base, _ := sendN(t, nil, 50)
	jit, _ := sendN(t, &FaultParams{Seed: 9, JitterMax: sim.Millisecond}, 50)
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
	d1, fs1 := sendN(t, f, 500)
	d2, fs2 := sendN(t, f, 500)
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
	_, fs3 := sendN(t, &g, 500)
	if fs3 == fs1 {
		t.Error("different seeds produced identical fault stats (suspicious)")
	}
}

func TestFaultsInactiveIsByteIdentical(t *testing.T) {
	// A FaultParams with every dimension zero must leave the network on
	// the reliable fast path: identical deliveries and zero fault stats.
	base, _ := sendN(t, nil, 100)
	zero, fs := sendN(t, &FaultParams{Seed: 99}, 100)
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
	if got, want := kinds[trace.KindMsgSend], 200-dropped+dupped; got != want {
		t.Errorf("msg.send events = %d, want %d: 200 sends, %d dropped, %d duplicated", got, want, dropped, dupped)
	}
	snap := reg.Snapshot()
	if int(snap.NetDropped) != dropped || int(snap.NetDuplicated) != dupped {
		t.Errorf("counters = %d/%d, want %d/%d", snap.NetDropped, snap.NetDuplicated, dropped, dupped)
	}
	// Egress queueing is one observation a send, dropped or not: a
	// duplicate's replica never queued.
	if got := snap.Net.EgressWait[ClassLock].Count; got != 200 {
		t.Errorf("egress waits observed = %d, want one for each of the 200 sends", got)
	}
	// Every delivered message has a send/deliver pair; drops have neither.
	if kinds[trace.KindMsgSend] != kinds[trace.KindMsgDeliver] {
		t.Errorf("send events %d != deliver events %d", kinds[trace.KindMsgSend], kinds[trace.KindMsgDeliver])
	}
}
