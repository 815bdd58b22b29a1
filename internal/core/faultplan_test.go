package core

import (
	"errors"
	"strings"
	"testing"

	"cvm/internal/netsim"
	"cvm/internal/sim"
)

// faultyAccumulation runs the chained-accumulation workload (the
// protocol's hardest ordering test) under the given fault plan and
// returns the final counter values and the run's statistics.
func faultyAccumulation(t *testing.T, fp *FaultPlan) ([]float64, RunStats) {
	t.Helper()
	const (
		nodes    = 4
		threads  = 2
		counters = 8
		rounds   = 2
	)
	cfg := DefaultConfig(nodes, threads)
	cfg.Faults = fp
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := s.Alloc("counters", 8192)
	at := func(i int) Addr { return addr + Addr(i*8) }

	var finals []float64
	runApp(t, s, func(w *Thread) {
		gid := w.GlobalID()
		w.Barrier(0)
		for r := 0; r < rounds; r++ {
			for k := 0; k < counters; k++ {
				c := k
				if gid%2 == 1 {
					c = counters - 1 - k
				}
				w.Lock(10 + c)
				w.WriteF64(at(c), w.ReadF64(at(c))+float64(gid+1))
				w.Unlock(10 + c)
			}
			w.Barrier(100 + r)
		}
		if gid == 0 {
			for c := 0; c < counters; c++ {
				finals = append(finals, w.ReadF64(at(c)))
			}
		}
		w.Barrier(9999)
	})
	return finals, s.Stats()
}

// heavyFaults is a plan that exercises every network fault dimension at
// rates high enough to guarantee retransmissions and dup suppressions
// in a short run.
func heavyFaults(seed uint64) *FaultPlan {
	fp := &FaultPlan{Net: netsim.FaultParams{
		Seed:         seed,
		JitterMax:    200 * sim.Microsecond,
		ReorderDelay: 2 * sim.Millisecond,
	}}
	for c := 0; c < netsim.NumClasses; c++ {
		fp.Net.Drop[c] = 0.05
		fp.Net.Dup[c] = 0.05
		fp.Net.Reorder[c] = 0.05
	}
	return fp
}

func TestTransportSurvivesFaults(t *testing.T) {
	clean, cleanStats := faultyAccumulation(t, nil)
	faulty, stats := faultyAccumulation(t, heavyFaults(1))

	if len(clean) != len(faulty) {
		t.Fatalf("result lengths differ: %d vs %d", len(clean), len(faulty))
	}
	for i := range clean {
		if clean[i] != faulty[i] {
			t.Errorf("counter %d = %v under faults, want %v", i, faulty[i], clean[i])
		}
	}
	if stats.Total.Retransmits == 0 {
		t.Error("5% drop run recorded no retransmissions")
	}
	if stats.Total.DupsSuppressed == 0 {
		t.Error("5% dup run suppressed no duplicate deliveries")
	}
	if cleanStats.Total.Retransmits != 0 || cleanStats.Total.DupsSuppressed != 0 {
		t.Errorf("fault-free run recorded transport activity: %d retransmits, %d dups",
			cleanStats.Total.Retransmits, cleanStats.Total.DupsSuppressed)
	}
	// Faults cost real virtual time: the faulty run cannot be faster.
	if stats.Wall < cleanStats.Wall {
		t.Errorf("faulty wall %v < fault-free wall %v", stats.Wall, cleanStats.Wall)
	}
}

func TestTransportDeterministic(t *testing.T) {
	r1, s1 := faultyAccumulation(t, heavyFaults(77))
	r2, s2 := faultyAccumulation(t, heavyFaults(77))
	if s1.Wall != s2.Wall {
		t.Errorf("wall time diverged across identical runs: %v vs %v", s1.Wall, s2.Wall)
	}
	if s1.Total != s2.Total {
		t.Errorf("stats diverged:\n%+v\n%+v", s1.Total, s2.Total)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Errorf("result %d diverged: %v vs %v", i, r1[i], r2[i])
		}
	}
	// A different seed must yield a different fault schedule (and thus
	// different timing), while computing the same answer.
	r3, s3 := faultyAccumulation(t, heavyFaults(78))
	if s3.Wall == s1.Wall {
		t.Error("different fault seeds produced identical wall time (suspicious)")
	}
	for i := range r1 {
		if r1[i] != r3[i] {
			t.Errorf("seed changed the computed result %d: %v vs %v", i, r3[i], r1[i])
		}
	}
}

func TestTransportRetryBudgetFailsLoudly(t *testing.T) {
	// A dead network (100% drop) must abort with ErrTransport, not hang.
	fp := &FaultPlan{Net: netsim.FaultParams{Seed: 1, RTO: sim.Millisecond, MaxRetries: 3}}
	for c := 0; c < netsim.NumClasses; c++ {
		fp.Net.Drop[c] = 1
	}
	cfg := DefaultConfig(2, 1)
	cfg.Faults = fp
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc("x", 8192); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(func(w *Thread) { w.Barrier(0) }); err != nil {
		t.Fatal(err)
	}
	err = s.Run()
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("Run() = %v, want ErrTransport", err)
	}
}

func TestNodePauseStretchesRun(t *testing.T) {
	_, base := faultyAccumulation(t, nil)
	fp := &FaultPlan{Pauses: []NodePause{{Node: 1, From: 0, To: 20 * sim.Millisecond}}}
	res, paused := faultyAccumulation(t, fp)
	if paused.Wall <= base.Wall {
		t.Errorf("20ms pause did not stretch the run: %v vs %v", paused.Wall, base.Wall)
	}
	clean, _ := faultyAccumulation(t, nil)
	for i := range clean {
		if clean[i] != res[i] {
			t.Errorf("pause changed computed result %d: %v vs %v", i, res[i], clean[i])
		}
	}
}

func TestNodeSlowdownStretchesRun(t *testing.T) {
	_, base := faultyAccumulation(t, nil)
	fp := &FaultPlan{Slowdowns: []NodeSlowdown{{Node: 0, From: 0, To: sim.Time(1 << 62), Factor: 3}}}
	_, slowed := faultyAccumulation(t, fp)
	if slowed.Wall <= base.Wall {
		t.Errorf("3× slowdown did not stretch the run: %v vs %v", slowed.Wall, base.Wall)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []*FaultPlan{
		{Pauses: []NodePause{{Node: 9, From: 0, To: 1}}},
		{Pauses: []NodePause{{Node: 0, From: 5, To: 5}}},
		{Slowdowns: []NodeSlowdown{{Node: 0, From: 0, To: 1, Factor: 0.5}}},
		{Net: netsim.FaultParams{Drop: [netsim.NumClasses]float64{2}}},
		{Net: netsim.FaultParams{RTO: -1}},
		{Net: netsim.FaultParams{MaxRetries: -1}},
	}
	for i, fp := range bad {
		if err := fp.Validate(4); err == nil {
			t.Errorf("Validate(%d) accepted bad plan %+v", i, fp)
		}
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(4); err != nil {
		t.Errorf("nil plan failed validation: %v", err)
	}
	if nilPlan.Active() {
		t.Error("nil plan reports active")
	}
}

func TestParseFaultPlan(t *testing.T) {
	fp, err := ParseFaultPlan("drop=0.01,dup=0.001,reorder.lock=0.05,jitter=500us,pause=2:10ms:5ms,slow=0:0s:50ms:4,rto=10ms,retries=20", 42)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Net.Seed != 42 {
		t.Errorf("seed = %d, want 42", fp.Net.Seed)
	}
	for c := 0; c < netsim.NumClasses; c++ {
		if fp.Net.Drop[c] != 0.01 {
			t.Errorf("drop[%d] = %v, want 0.01", c, fp.Net.Drop[c])
		}
		if fp.Net.Dup[c] != 0.001 {
			t.Errorf("dup[%d] = %v, want 0.001", c, fp.Net.Dup[c])
		}
	}
	if fp.Net.Reorder[netsim.ClassLock] != 0.05 || fp.Net.Reorder[netsim.ClassDiff] != 0 {
		t.Errorf("per-class reorder wrong: %v", fp.Net.Reorder)
	}
	if fp.Net.ReorderDelay != sim.Millisecond {
		t.Errorf("reorder-delay default = %v, want 1ms", fp.Net.ReorderDelay)
	}
	if fp.Net.JitterMax != 500*sim.Microsecond {
		t.Errorf("jitter = %v, want 500µs", fp.Net.JitterMax)
	}
	wantPause := NodePause{Node: 2, From: 10 * sim.Millisecond, To: 15 * sim.Millisecond}
	if len(fp.Pauses) != 1 || fp.Pauses[0] != wantPause {
		t.Errorf("pauses = %+v, want [%+v]", fp.Pauses, wantPause)
	}
	wantSlow := NodeSlowdown{Node: 0, From: 0, To: 50 * sim.Millisecond, Factor: 4}
	if len(fp.Slowdowns) != 1 || fp.Slowdowns[0] != wantSlow {
		t.Errorf("slowdowns = %+v, want [%+v]", fp.Slowdowns, wantSlow)
	}
	if fp.Net.RTO != 10*sim.Millisecond || fp.Net.MaxRetries != 20 {
		t.Errorf("rto/retries = %v/%d, want 10ms/20", fp.Net.RTO, fp.Net.MaxRetries)
	}

	if fp, err := ParseFaultPlan("", 7); err != nil || fp.Active() {
		t.Errorf("empty spec: plan %+v, err %v; want inactive, nil", fp, err)
	}

	for _, spec := range []string{
		"drop", "drop=2", "drop.tcp=0.1", "frobnicate=1",
		"jitter=fast", "pause=1:2ms", "pause=-1:0s:1ms", "pause=0:0s:0s",
		"slow=0:0s:1ms:0.5", "rto=-5ms", "retries=0", "drop.update=0.1",
	} {
		if _, err := ParseFaultPlan(spec, 0); err == nil {
			t.Errorf("ParseFaultPlan(%q) succeeded, want error", spec)
		}
	}
	// An unknown class names the accepted ones, and only those.
	_, err = ParseFaultPlan("drop.update=0.1", 0)
	if err == nil || !strings.Contains(err.Error(), "(want barrier, lock, diff)") {
		t.Errorf("ParseFaultPlan(drop.update=0.1) error %v, want one naming barrier, lock, diff", err)
	}
}
