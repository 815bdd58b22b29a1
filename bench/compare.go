package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads back.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
	verdictDiffers    = "DIFFERS"
	verdictMissing    = "MISSING"
)

// judge compares set b against set a on one bounded metric: worse is
// the share of a's median by which b's median is worse (negative when b
// is better), and spread the wider of the two sets' interquartile
// distances as a share of their medians. A spread beyond the bound
// leaves the comparison unresolved, whatever the medians say.
func judge(a, b []float64, better string, bound float64) (verdict string, worse, spread float64) {
	if len(a) == 0 || len(b) == 0 {
		return verdictMissing, 0, 0
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == "higher" {
			worse = -worse
		}
	}
	spread = spreadShare(a)
	if s := spreadShare(b); s > spread {
		spread = s
	}
	switch {
	case spread > bound:
		return verdictUnresolved, worse, spread
	case worse > bound:
		return verdictWorse, worse, spread
	}
	return verdictOK, worse, spread
}

// compareSets prints, for every workload and end-to-end metric, how set
// b differs from set a against the metric's bound, and checks that the
// exact simulated counts of traced sets are identical. It returns the
// exit code: 1 when a metric is worse beyond its bound, a count differs,
// an op failed or a metric is missing; unresolved metrics are reported
// and do not fail the comparison on their own.
func compareSets(out io.Writer, benchmarkPath, pathA, pathB string) int {
	var bf benchmarkFile
	var a, b sampleSet
	for path, v := range map[string]any{benchmarkPath: &bf, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	code := 0
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(out, "%s: %s in %s\n", name, verdictMissing, pathB)
			code = 1
			continue
		}
		fmt.Fprintf(out, "%s: ops %d/%d ops_failed %d/%d\n", name, wa.Attempted, wb.Attempted, wa.Failed, wb.Failed)
		if wa.Failed != 0 || wb.Failed != 0 {
			code = 1
		}
		if a.Trace == 0 {
			for _, d := range bf.EndToEnd {
				var va, vb []float64
				if m := wa.Metrics[d.Name]; m != nil {
					va = m.Values
				}
				if m := wb.Metrics[d.Name]; m != nil {
					vb = m.Values
				}
				verdict, worse, spread := judge(va, vb, d.Better, d.Bound)
				fmt.Fprintf(out, "  %-18s %-10s a %.6g %s (n=%d)  b %.6g %s (n=%d)  worse by %+.2f%%  spread %.2f%%  bound %.0f%%\n",
					d.Name, verdict, median(va), d.Unit, len(va), median(vb), d.Unit, len(vb), 100*worse, 100*spread, 100*d.Bound)
				if verdict == verdictWorse || verdict == verdictMissing {
					code = 1
				}
			}
			continue
		}
		// Traced sets: the exact simulated statistics must not move.
		for _, d := range bf.PerLayer {
			if d.Unit != "count" && d.Unit != "sim_ms" {
				continue
			}
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil || !slices.Equal(ma.Values, mb.Values) {
				fmt.Fprintf(out, "  %-32s %s\n", d.Name, verdictDiffers)
				code = 1
			}
		}
	}
	return code
}
