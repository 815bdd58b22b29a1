package cvm_test

import (
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/harness"
)

// The benchmarks below regenerate each of the paper's tables and figures
// once per iteration, reporting simulated-cluster metrics alongside Go
// wall time. They run at the "test" input scale so `go test -bench=.`
// stays quick; use cmd/cvm-bench (-size small|paper) for full-scale runs.

// benchGrid runs one grid configuration per iteration.
func benchGrid(b *testing.B, appNames []string, nodes, threads []int) harness.Results {
	b.Helper()
	var res harness.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunGridParallel(appNames, apps.SizeTest,
			harness.GridShapes(nodes, threads), nil, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// BenchmarkSection41_Costs regenerates the §4.1 primitive-cost numbers.
func BenchmarkSection41_Costs(b *testing.B) {
	var c harness.Costs
	for i := 0; i < b.N; i++ {
		var err error
		c, err = harness.MeasureCosts()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(c.TwoHopLock.Microseconds(), "2hop-µs")
	b.ReportMetric(c.ThreeHopLock.Microseconds(), "3hop-µs")
	b.ReportMetric(c.PageFault.Microseconds(), "fault-µs")
	b.ReportMetric(c.Barrier8.Microseconds(), "barrier-µs")
}

// BenchmarkFigure1 regenerates the normalized-execution-time grid
// (all applications, 4 and 8 processors, 1-4 threads).
func BenchmarkFigure1(b *testing.B) {
	res := benchGrid(b, harness.AppOrder, []int{4, 8}, harness.ThreadLevels)
	rows := harness.Figure1(res, harness.AppOrder, []int{4, 8}, harness.ThreadLevels)
	// Report the paper's headline: mean normalized time at 8 procs / 4
	// threads across the suite (< 1.0 means multi-threading wins).
	var sum float64
	var n int
	for _, r := range rows {
		if r.Nodes == 8 && r.Threads == 4 {
			sum += r.Norm
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "mean-norm-8p4t")
	}
}

// BenchmarkTable2_Communication regenerates the communication table at 8
// processors.
func BenchmarkTable2_Communication(b *testing.B) {
	res := benchGrid(b, harness.AppOrder, []int{8}, harness.ThreadLevels)
	rows := harness.Table2(res, harness.AppOrder, 8, harness.ThreadLevels)
	var msgs int64
	for _, r := range rows {
		msgs += r.TotalMsgs
	}
	b.ReportMetric(float64(msgs), "total-msgs")
}

// BenchmarkTable3_DSMActions regenerates the DSM-actions table at 8
// processors.
func BenchmarkTable3_DSMActions(b *testing.B) {
	res := benchGrid(b, harness.AppOrder, []int{8}, harness.ThreadLevels)
	rows := harness.Table3(res, harness.AppOrder, 8, harness.ThreadLevels)
	var switches, diffs int64
	for _, r := range rows {
		switches += r.ThreadSwitches
		diffs += r.DiffsCreated
	}
	b.ReportMetric(float64(switches), "switches")
	b.ReportMetric(float64(diffs), "diffs-created")
}

// BenchmarkFigure2_MemorySystem regenerates the cache/TLB miss series.
func BenchmarkFigure2_MemorySystem(b *testing.B) {
	res := benchGrid(b, harness.AppOrder, []int{8}, harness.ThreadLevels)
	rows := harness.Figure2(res, harness.AppOrder, 8, harness.ThreadLevels)
	var dcache int64
	for _, r := range rows {
		dcache += r.DCacheMisses
	}
	b.ReportMetric(float64(dcache), "dcache-misses")
}

// BenchmarkTable4_Scalability regenerates the scalability deltas over 4,
// 8 and 16 processors.
func BenchmarkTable4_Scalability(b *testing.B) {
	names := []string{"fft", "ocean", "sor", "swm750", "watersp", "waternsq"}
	res := benchGrid(b, names, []int{4, 8, 16}, []int{1, 2, 4})
	rows := harness.Table4(res, names, []int{4, 8, 16}, []int{2, 4})
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable5_WaterNsqOptimizations regenerates the Water-Nsq
// source-modification case study.
func BenchmarkTable5_WaterNsqOptimizations(b *testing.B) {
	var rows []harness.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Table5(apps.SizeTest, 8, harness.ThreadLevels, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Variant == "waternsq" && r.Threads == 4 {
			b.ReportMetric(r.SpeedupPct, "both-opts-4t-spdup-%")
		}
	}
}

// BenchmarkApps measures a single simulated run of each application, the
// unit of work every table is built from.
func BenchmarkApps(b *testing.B) {
	for _, name := range apps.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			var wall cvm.Time
			for i := 0; i < b.N; i++ {
				st, err := apps.Run(name, apps.SizeTest, 8, 2)
				if err != nil {
					b.Fatal(err)
				}
				wall = st.Wall
			}
			b.ReportMetric(wall.Milliseconds(), "sim-ms")
		})
	}
}

// BenchmarkAblation_SwitchCost regenerates the thread-switch-cost
// sensitivity study (DESIGN.md ablation).
func BenchmarkAblation_SwitchCost(b *testing.B) {
	var rows []harness.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.AblationSwitchCost("waternsq", apps.SizeTest)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].SpeedupPct, "spdup-8µs-%")
	b.ReportMetric(rows[len(rows)-1].SpeedupPct, "spdup-1ms-%")
}

// BenchmarkAblation_WireLatency regenerates the remote-latency
// sensitivity study (DESIGN.md ablation).
func BenchmarkAblation_WireLatency(b *testing.B) {
	var rows []harness.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.AblationWireLatency("waternsq", apps.SizeTest)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].SpeedupPct, "spdup-4x-%")
}

// BenchmarkProtocols compares the paper's lazy multi-writer protocol
// against the single-writer invalidate baseline across the suite.
func BenchmarkProtocols(b *testing.B) {
	var rows []harness.Pair
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.CompareProtocols([]string{"sor", "waternsq"},
			apps.SizeTest, 8, 2, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "waternsq" {
			b.ReportMetric(float64(r.Variant.Wall)/float64(r.Base.Wall), "sw/lrc-wall")
		}
	}
}
