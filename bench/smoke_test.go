package main

import (
	"bytes"
	"testing"
)

// loadBenchmarkFile reads the BENCHMARK.json this package implements.
func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	var bf benchmarkFile
	if err := readJSON("../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the tables in
// this package in step: workload names, metric names and units, and a command that names only the benchmark's own directory.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, bf.Workloads[i].Name, w.name)
		}
		if why := bf.Workloads[i].Why; why == "" || len(why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.name, len(why))
		}
	}
	sameMetrics := func(kind string, file []boundedMetric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(file), len(code))
			return
		}
		for i, d := range code {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], code has %s [%s]",
					kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
			if file[i].Better != "lower" && file[i].Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, d.name, file[i].Better)
			}
		}
	}
	sameMetrics("end_to_end", bf.EndToEnd, endToEndMetrics)
	sameMetrics("per_layer", bf.PerLayer, perLayerMetrics)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(bf.PerLayer))
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
}

// TestSmoke runs every workload at size test, one round, untraced and
// traced, and checks what the driver checks: every metric of the mode is
// there with its unit, every op passed, the result is the last line.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := runWorkload(&out, w, options{seed: 1, seconds: 1, traced: traced, smoke: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < len(w.cells(true)) {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q, want %q", w.name, traced, d.name, v.Unit, d.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.name, d.name, v.Value)
				}
			}
			last, err := lastLineResult(out.Bytes())
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			} else if last.Attempted != res.Attempted || len(last.Metrics) != len(res.Metrics) {
				t.Errorf("%s traced=%v: the last line is not the result", w.name, traced)
			}
			if traced {
				checkLayerSplit(t, w.name, res)
			}
		}
	}
}

// checkLayerSplit checks the predictions that hold by construction: a
// workload that bypasses a layer reports no work in it.
func checkLayerSplit(t *testing.T, name string, res result) {
	t.Helper()
	zero := func(metric string) {
		if v := res.Metrics[metric].Value; v != 0 {
			t.Errorf("%s: %s is %g, want 0", name, metric, v)
		}
	}
	positive := func(metric string) {
		if v := res.Metrics[metric].Value; v <= 0 {
			t.Errorf("%s: %s is %g, want > 0", name, metric, v)
		}
	}
	if name != "sim-observed" {
		zero("trace.events")
		zero("trace.chrome_ms")
		zero("check.finish_ms")
		zero("metrics.report_ms")
	} else {
		positive("trace.events")
		positive("trace.chrome_mb")
		positive("metrics.report_kb")
	}
	if name == "rt-loopback" {
		zero("virt_wall_ms")
		zero("netsim.msgs")
		zero("memsim.accesses")
		zero("core.diffs_used")
		positive("rt.msgs")
		positive("apps.sor.rt_wall_ms")
	} else {
		positive("virt_wall_ms")
		positive("netsim.msgs")
		positive("memsim.accesses")
		zero("rt.msgs")
	}
	positive("span_coverage")
	positive("sim.event_ns")
	positive("transport.loopback_rtt_us")
}
