package harness

import (
	"strings"
	"testing"

	"cvm"
	"cvm/internal/apps"
)

// smallGrid runs a compact grid shared by the table tests.
func smallGrid(t *testing.T) Results {
	t.Helper()
	res, err := RunGridParallel([]string{"sor", "waternsq"}, apps.SizeTest,
		GridShapes([]int{4}, []int{1, 2}), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunGridSkipsUnsupported(t *testing.T) {
	res, err := RunGridParallel([]string{"ocean"}, apps.SizeTest,
		GridShapes([]int{2}, []int{1, 2, 3, 4}), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res[Key{"ocean", 2, 3}]; ok {
		t.Error("grid contains ocean at 3 threads; must be skipped")
	}
	if _, ok := res[Key{"ocean", 2, 2}]; !ok {
		t.Error("grid missing ocean at 2 threads")
	}
}

func TestFigure1Normalization(t *testing.T) {
	res := smallGrid(t)
	rows := Figure1(res, []string{"sor", "waternsq"}, []int{4}, []int{1, 2})
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Threads == 1 && (r.Norm < 0.999 || r.Norm > 1.001) {
			t.Errorf("%s T=1 norm = %v, want 1.0", r.App, r.Norm)
		}
		sum := r.User + r.Barrier + r.Fault + r.Lock
		if sum < r.Norm*0.999 || sum > r.Norm*1.001 {
			t.Errorf("%s T=%d components sum %v != norm %v", r.App, r.Threads, sum, r.Norm)
		}
	}
}

func TestTable2Consistency(t *testing.T) {
	res := smallGrid(t)
	for _, r := range Table2(res, []string{"sor", "waternsq"}, 4, []int{1, 2}) {
		if got := r.BarrierMsgs + r.LockMsgs + r.DiffMsgs; got != r.TotalMsgs {
			t.Errorf("%s T=%d: class sum %d != total %d", r.App, r.Threads, got, r.TotalMsgs)
		}
		if r.App == "sor" && r.LockMsgs != 0 {
			t.Errorf("sor lock msgs = %d, want 0", r.LockMsgs)
		}
		if r.App == "waternsq" && r.LockMsgs == 0 {
			t.Error("waternsq lock msgs = 0, want > 0")
		}
	}
}

func TestTable3MultithreadingEffects(t *testing.T) {
	res := smallGrid(t)
	rows := Table3(res, []string{"sor"}, 4, []int{1, 2})
	if rows[0].ThreadSwitches != 0 {
		// T=1 has only scheduler drains; no useful switches between
		// distinct application threads beyond startup.
		t.Logf("note: single-thread switches = %d", rows[0].ThreadSwitches)
	}
	if rows[1].ThreadSwitches == 0 {
		t.Error("T=2 thread switches = 0, want > 0")
	}
	if rows[1].OutstandingFaults == 0 {
		t.Error("T=2 outstanding faults = 0, want > 0 (overlap)")
	}
	if rows[0].OutstandingFaults != 0 {
		t.Errorf("T=1 outstanding faults = %d, want 0", rows[0].OutstandingFaults)
	}
}

func TestTable4Percentages(t *testing.T) {
	res := smallGrid(t)
	rows := Table4(res, []string{"sor"}, []int{4}, []int{2})
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].TotalMsgs == "" || rows[0].DiffsCreated == "" {
		t.Error("empty percentage cells")
	}
}

func TestPct(t *testing.T) {
	tests := []struct {
		now, base int64
		want      string
	}{
		{110, 100, "+10%"},
		{90, 100, "-10%"},
		{100, 100, "+0%"},
		{0, 0, "0%"},
		{5, 0, "n/a"},
		{-5, 0, "n/a"},      // zero base with a negative delta
		{0, 100, "-100%"},   // everything eliminated
		{25, 100, "-75%"},   // negative delta
		{300, 100, "+200%"}, // multiples
		{1004, 1000, "+0%"}, // rounds toward zero change
		{1006, 1000, "+1%"}, // rounds up
		{995, 1000, "-0%"},  // tiny negative delta rounds to -0
		{994, 1000, "-1%"},  // rounds down
	}
	for _, tt := range tests {
		if got := pct(tt.now, tt.base); got != tt.want {
			t.Errorf("pct(%d,%d) = %q, want %q", tt.now, tt.base, got, tt.want)
		}
	}
}

func TestTable5Speedups(t *testing.T) {
	rows, err := Table5(apps.SizeTest, 4, []int{1, 2}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Threads == 1 && r.SpeedupPct != 0 {
			t.Errorf("%s T=1 speedup = %v, want 0", r.Variant, r.SpeedupPct)
		}
	}
	// Block Same Lock: zero for the local-barrier variants, positive for
	// NoOpts at T=2 (Table 5's signature result).
	for _, r := range rows {
		switch {
		case r.Variant == "waternsq-noopts" && r.Threads == 2 && r.BlockSameLock == 0:
			t.Error("NoOpts T=2 BlockSameLock = 0, want > 0")
		case r.Variant != "waternsq-noopts" && r.BlockSameLock != 0:
			t.Errorf("%s T=%d BlockSameLock = %d, want 0", r.Variant, r.Threads, r.BlockSameLock)
		}
	}
}

// TestMeasureCosts checks the paper's §4.1 primitive costs as a thread
// measures them. internal/core's TestMetrics*Calibration check the same
// costs as the metrics registry derives them from events.
func TestMeasureCosts(t *testing.T) {
	c, err := MeasureCosts()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name   string
		got    int64
		lo, hi int64
	}{
		{"2-hop lock", int64(c.TwoHopLock), 897_000, 977_000},
		{"3-hop lock", int64(c.ThreeHopLock), 1_330_000, 1_442_000},
		{"page fault", int64(c.PageFault), 950_000, 1_250_000},
		{"barrier", int64(c.Barrier8), 1_400_000, 2_600_000},
		{"thread switch", int64(c.ThreadSwitch), 8_000, 8_000},
	}
	for _, ck := range checks {
		if ck.got < ck.lo || ck.got > ck.hi {
			t.Errorf("%s = %dns, want within [%d, %d]", ck.name, ck.got, ck.lo, ck.hi)
		}
	}
}

func TestWritersProduceOutput(t *testing.T) {
	res := smallGrid(t)
	var sb strings.Builder
	WriteFigure1(&sb, res, []string{"sor", "waternsq"}, []int{4}, []int{1, 2})
	WriteTable2(&sb, res, []string{"sor", "waternsq"}, 4, []int{1, 2})
	WriteTable3(&sb, res, []string{"sor", "waternsq"}, 4, []int{1, 2})
	WriteTable4(&sb, res, []string{"sor", "waternsq"}, []int{4}, []int{2})
	WriteFigure2(&sb, res, []string{"sor", "waternsq"}, 4, []int{1, 2})
	out := sb.String()
	for _, want := range []string{"Figure 1", "Table 2", "Table 3", "Table 4", "Figure 2", "sor", "waternsq"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAblationSwitchCost(t *testing.T) {
	rows, err := AblationSwitchCost("waternsq", apps.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The multi-threading benefit must erode as switches get expensive
	// (the paper's limiting factor #5).
	if rows[0].SpeedupPct <= rows[len(rows)-1].SpeedupPct {
		t.Errorf("speedup at 8µs (%+.1f%%) not greater than at 1ms (%+.1f%%)",
			rows[0].SpeedupPct, rows[len(rows)-1].SpeedupPct)
	}
}

func TestAblationWireLatency(t *testing.T) {
	rows, err := AblationWireLatency("waternsq", apps.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The benefit must grow with remote latency (the paper's premise).
	if rows[len(rows)-1].SpeedupPct <= rows[0].SpeedupPct {
		t.Errorf("speedup at 4x latency (%+.1f%%) not greater than at 0.5x (%+.1f%%)",
			rows[len(rows)-1].SpeedupPct, rows[0].SpeedupPct)
	}
	var sb strings.Builder
	WriteAblation(&sb, "wire", rows)
	if !strings.Contains(sb.String(), "wire-latency") {
		t.Error("WriteAblation output missing param name")
	}
}

func TestAblationScheduler(t *testing.T) {
	p, err := AblationScheduler("sor", apps.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	if p.App != "sor" || p.Base.Wall <= 0 || p.Variant.Wall <= 0 {
		t.Fatalf("pair = %s FIFO %v / LIFO %v, want sor with positive walls", p.App, p.Base.Wall, p.Variant.Wall)
	}
	// The disciplines must actually differ: LIFO reorders the run queue,
	// which moves the cache behaviour the ablation exists to show.
	if p.Base.MemTotal == p.Variant.MemTotal && p.Base.Wall == p.Variant.Wall {
		t.Error("FIFO and LIFO runs are identical; the variant was not applied")
	}
}

func TestCompareProtocols(t *testing.T) {
	rows, err := CompareProtocols([]string{"sor", "waternsq"}, apps.SizeTest, 4, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Base.Wall <= 0 || r.Variant.Wall <= 0 {
			t.Errorf("%s: non-positive wall times %v / %v", r.App, r.Base.Wall, r.Variant.Wall)
		}
	}
	// Water-Nsq's falsely-shared force pages must cost the single-writer
	// protocol far more data movement (whole pages ping-pong).
	for _, r := range rows {
		if lrc, sw := r.Base.Net.TotalBytes(), r.Variant.Net.TotalBytes(); r.App == "waternsq" && sw <= lrc {
			t.Errorf("waternsq: SW bytes %d not greater than LRC %d", sw, lrc)
		}
	}
	var sb strings.Builder
	WriteProtocols(&sb, rows, 4, 2)
	if !strings.Contains(sb.String(), "single-writer") {
		t.Error("WriteProtocols output missing header")
	}
}

func TestRemainingWriters(t *testing.T) {
	var sb strings.Builder
	WriteCosts(&sb, Costs{TwoHopLock: 930000, ThreeHopLock: 1395000,
		PageFault: 1196000, Barrier8: 1699000, ThreadSwitch: 8000})
	WriteSchedulerAblation(&sb, Pair{App: "sor", Base: cvm.Stats{Wall: 1000}, Variant: cvm.Stats{Wall: 900}})
	WriteTable5(&sb, []Table5Row{{Variant: "waternsq", Threads: 2, SpeedupPct: 6.6}})
	out := sb.String()
	for _, want := range []string{"937µs", "FIFO", "LIFO", "Table 5", "waternsq"} {
		if !strings.Contains(out, want) {
			t.Errorf("writer output missing %q", want)
		}
	}
}
