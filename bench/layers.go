package main

import (
	"time"

	"cvm/internal/harness"
)

// perLayerMetrics lists what a traced run prints, layer by layer (the
// layer is the package name). Counts taken from a workload's own cells
// are zero on a workload that does not exercise the layer; the kernels
// do not depend on the workload and every traced run repeats them. Unit
// "count" (and "sim_ms", simulated time) marks an exact simulated
// statistic that repeats from run to run; the real runtime's counts are
// measurements and carry the unit "n".
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"harness.cells", "count"},
		{"harness.pool_speedup", "ratio"},
		{"harness.cell_ms_max", "ms"},
	}
	for _, app := range harness.AppOrder {
		defs = append(defs, metricDef{"apps." + app + ".sim_host_ms", "ms"})
	}
	for _, app := range harness.AppOrder {
		defs = append(defs, metricDef{"apps." + app + ".rt_wall_ms", "ms"})
	}
	return append(defs, []metricDef{
		{"apps.solo_host_ms", "ms"},
		{"apps.scaleout_solo_host_ms", "ms"},
		{"apps.check_ms", "ms"},
		{"apps.setup_ms", "ms"},

		{"sim.event_ns", "ns"},
		{"sim.event_allocs", "allocs/op"},
		{"sim.handoff_ns", "ns"},
		{"sim.handoff_allocs", "allocs/op"},
		{"sim.windowed_speedup", "ratio"},

		{"netsim.send_ns", "ns"},
		{"netsim.send_allocs", "allocs/op"},
		{"netsim.msgs", "count"},
		{"netsim.bytes", "count"},
		{"netsim.host_us_per_msg", "us"},

		{"core.makediff_sparse_ns", "ns"},
		{"core.makediff_dense_ns", "ns"},
		{"core.makediff_clean_ns", "ns"},
		{"core.diffapply_ns", "ns"},
		{"core.encode_sparse_ns", "ns"},
		{"core.encode_dense_ns", "ns"},
		{"core.decode_sparse_ns", "ns"},
		{"core.decode_allocs", "allocs/op"},
		{"core.remote_faults", "count"},
		{"core.remote_locks", "count"},
		{"core.diffs_created", "count"},
		{"core.diffs_used", "count"},
		{"core.thread_switches", "count"},
		{"core.host_us_per_diff_used", "us"},
		{"core.manywriter_fault_host_us", "us"},
		{"core.fault_host_us", "us"},
		{"core.lock_host_us", "us"},
		{"core.barrier_host_us", "us"},
		{"core.compress_host_ratio", "ratio"},
		{"core.newsystem_ms_256", "ms"},
		{"core.lossy_host_ms", "ms"},
		{"core.retransmits", "count"},

		{"memsim.access_ns", "ns"},
		{"memsim.range_ns_per_access", "ns"},
		{"memsim.accesses", "count"},
		{"memsim.dcache_misses", "count"},
		{"memsim.host_share_est", "ratio"},

		{"trace.events", "count"},
		{"trace.record_overhead_ms", "ms"},
		{"trace.chrome_ms", "ms"},
		{"trace.chrome_mb", "MB"},
		{"trace.chrome_ns_per_event", "ns"},
		{"check.overhead_ms", "ms"},
		{"check.finish_ms", "ms"},
		{"metrics.overhead_ms", "ms"},
		{"metrics.report_ms", "ms"},
		{"metrics.report_kb", "KB"},
		{"observe.overhead_ratio", "ratio"},

		{"rt.fault_wait_ms", "ms"},
		{"rt.lock_wait_ms", "ms"},
		{"rt.barrier_wait_ms", "ms"},
		{"rt.remote_faults", "n"},
		{"rt.diff_bytes", "n"},
		{"rt.msgs", "n"},
		{"rt.bytes", "n"},
		{"rt.metrics_overhead_ratio", "ratio"},
		{"rt.tcp_wall_ms", "ms"},
		{"rt.tcp_fail_share", "ratio"},

		{"transport.loopback_rtt_us", "us"},
		{"transport.loopback_mb_s", "MB/s"},
		{"transport.tcp_rtt_us", "us"},
		{"transport.tcp_mb_s", "MB/s"},
		{"transport.tcp_mesh_setup_ms", "ms"},

		{"virt_wall_ms", "sim_ms"},
		{"trace_overhead_ratio", "ratio"},
		{"span_coverage", "ratio"},
	}...)
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics fills m with every per-layer metric of a traced run: the
// numbers derived from the workload's own passes and spans first, then
// the layer kernels.
func (b *bench) layerMetrics(m map[string]float64) {
	passSpans := b.recorder.spans // the kernels' spans come after these
	rounds := float64(len(b.tracedPass))
	perRound := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += totalOf(passSpans, n)
		}
		return ratio(ms(d), rounds)
	}
	pass, alt := median(b.pass), median(b.alt)
	cellMedian := func(c cell) float64 { return median(b.cellMs[c.String()]) }

	m["trace_overhead_ratio"] = ratio(median(b.tracedPass), pass)
	m["span_coverage"] = ratio(sec(rootTotal(passSpans)), sec(b.spanWall))

	switch b.w.name {
	case "sim-grid":
		m["harness.cells"] = float64(len(b.cells))
		m["harness.pool_speedup"] = ratio(pass, alt)
		for _, c := range b.cells {
			if v := cellMedian(c); v > m["harness.cell_ms_max"] {
				m["harness.cell_ms_max"] = v
			}
			m["apps."+c.app+".sim_host_ms"] += cellMedian(c)
		}
		m["apps.check_ms"] = perRound("App.Check")
		m["apps.setup_ms"] = perRound("apps.New", "cvm.New", "App.Setup")
	case "sim-scale":
		m["sim.windowed_speedup"] = ratio(alt, pass)
		m["core.compress_host_ratio"] = ratio(median(b.extra["compressed"]), median(b.tracedPass))
	case "sim-observed":
		bare := median(b.extra["bare"])
		m["observe.overhead_ratio"] = ratio(pass, alt)
		m["trace.events"] = float64(b.counts.events)
		m["trace.record_overhead_ms"] = 1e3 * (median(b.extra["rec_only"]) - bare)
		m["trace.chrome_ms"] = perRound("trace.WriteChrome")
		m["trace.chrome_mb"] = float64(b.counts.chromeB) / 1e6
		m["trace.chrome_ns_per_event"] = ratio(1e6*m["trace.chrome_ms"], m["trace.events"])
		m["check.overhead_ms"] = 1e3 * (median(b.extra["chk_only"]) - bare)
		m["check.finish_ms"] = perRound("Checker.Finish")
		m["metrics.overhead_ms"] = 1e3 * (median(b.extra["reg_only"]) - bare)
		m["metrics.report_ms"] = perRound("Registry.Snapshot", "metrics.NewReport", "Report.WriteJSON")
		m["metrics.report_kb"] = float64(b.counts.reportB) / 1e3
	case "rt-loopback":
		for _, c := range b.cells {
			m["apps."+c.app+".rt_wall_ms"] = cellMedian(c)
		}
		rc := b.rtSnap
		m["rt.fault_wait_ms"] = float64(rc.faultWaitNs) / 1e6
		m["rt.lock_wait_ms"] = float64(rc.lockWaitNs) / 1e6
		m["rt.barrier_wait_ms"] = float64(rc.barrierWaitNs) / 1e6
		m["rt.remote_faults"] = float64(rc.remoteFaults)
		m["rt.diff_bytes"] = float64(rc.diffBytes)
		m["rt.msgs"] = float64(rc.msgs)
		m["rt.bytes"] = float64(rc.bytes)
		m["rt.metrics_overhead_ratio"] = ratio(median(b.extra["rt_metrics"]), median(b.tracedPass))
	}

	// Exact simulated counts of one primary pass; all zero on the real
	// runtime, which runs none of sim, netsim and memsim.
	sc := b.counts
	m["virt_wall_ms"] = float64(sc.wall) / 1e6
	m["netsim.msgs"] = float64(sc.msgs)
	m["netsim.bytes"] = float64(sc.bytes)
	m["netsim.host_us_per_msg"] = ratio(1e6*pass, float64(sc.msgs))
	m["core.remote_faults"] = float64(sc.total.RemoteFaults)
	m["core.remote_locks"] = float64(sc.total.RemoteLocks)
	m["core.diffs_created"] = float64(sc.total.DiffsCreated)
	m["core.diffs_used"] = float64(sc.total.DiffsUsed)
	m["core.thread_switches"] = float64(sc.total.ThreadSwitches)
	m["core.host_us_per_diff_used"] = ratio(1e6*pass, float64(sc.total.DiffsUsed))
	m["memsim.accesses"] = float64(sc.accesses)
	m["memsim.dcache_misses"] = float64(sc.dmisses)

	b.runKernels(m)
	// An estimate: it prices every access of the pass at the kernel's
	// sweep cost, which the pass's own access pattern need not match.
	m["memsim.host_share_est"] = ratio(float64(sc.accesses)*m["memsim.access_ns"]/1e9, pass)
}
