package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 130, 80, 120, 75, 125, 100, 90, 110, 100}
	cases := []struct {
		name    string
		a, b    []float64
		better  string
		bound   float64
		verdict string
	}{
		{"same", steady, steady, "lower", 0.10, verdictOK},
		{"slower within the bound", steady, scale(steady, 1.08), "lower", 0.10, verdictOK},
		{"slower beyond the bound", steady, scale(steady, 1.15), "lower", 0.10, verdictWorse},
		{"faster", steady, scale(steady, 0.5), "lower", 0.10, verdictOK},
		{"higher is better and it fell", steady, scale(steady, 0.8), "higher", 0.10, verdictWorse},
		{"higher is better and it rose", steady, scale(steady, 1.3), "higher", 0.10, verdictOK},
		{"spread wider than the bound", steady, noisy, "lower", 0.10, verdictUnresolved},
		{"missing", steady, nil, "lower", 0.10, verdictMissing},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.a, c.b, c.better, c.bound); got != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.verdict)
		}
	}
}

func writeSet(t *testing.T, dir, name string, trace int, metrics map[string]*metricSamples, failed int) string {
	t.Helper()
	set := sampleSet{Trace: trace, Workloads: map[string]*workloadSamples{
		"sim-grid": {Attempted: 100, Failed: failed, Metrics: metrics},
	}}
	data, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareSets(t *testing.T) {
	dir := t.TempDir()
	bf := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bf, []byte(`{
		"end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "core.diffs_used", "unit": "count", "better": "lower"},
		              {"name": "sim.event_ns", "unit": "ns", "better": "lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	times := func(vs ...float64) map[string]*metricSamples {
		return map[string]*metricSamples{"pass_s": {Unit: "s", Values: vs}}
	}
	counts := func(used, ns float64) map[string]*metricSamples {
		return map[string]*metricSamples{
			"core.diffs_used": {Unit: "count", Values: []float64{used, used}},
			"sim.event_ns":    {Unit: "ns", Values: []float64{ns, ns * 1.1}},
		}
	}
	base := writeSet(t, dir, "a.json", 0, times(2.0, 2.02, 1.98, 2.01), 0)
	cases := []struct {
		name string
		a, b string
		code int
		want string
	}{
		{"agree", base, writeSet(t, dir, "b1.json", 0, times(2.05, 2.04, 2.06, 2.03), 0), 0, verdictOK},
		{"worse", base, writeSet(t, dir, "b2.json", 0, times(2.5, 2.52, 2.48, 2.5), 0), 1, verdictWorse},
		{"unresolved", base, writeSet(t, dir, "b3.json", 0, times(1.5, 2.6, 1.4, 2.7), 0), 0, verdictUnresolved},
		{"failed ops", base, writeSet(t, dir, "b4.json", 0, times(2.0, 2.0, 2.0, 2.0), 3), 1, "ops_failed 0/3"},
		{"missing metric", base, writeSet(t, dir, "b5.json", 0, nil, 0), 1, verdictMissing},
		{"traced, counts equal, timings free to move",
			writeSet(t, dir, "ta.json", 1, counts(5000, 180), 0),
			writeSet(t, dir, "tb.json", 1, counts(5000, 250), 0), 0, "sim-grid"},
		{"traced, a count moved",
			writeSet(t, dir, "tc.json", 1, counts(5000, 180), 0),
			writeSet(t, dir, "td.json", 1, counts(5001, 180), 0), 1, verdictDiffers},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if code := compareSets(&out, bf, c.a, c.b); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q:\n%s", c.name, c.want, out.String())
		}
	}
}
