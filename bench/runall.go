package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// sampleSet is what `bench -runs N -out file` writes and `bench
// -compare` reads: for every workload, each metric's value in each run.
type sampleSet struct {
	Host      hostInfo                    `json:"host"`
	Seconds   float64                     `json:"seconds"`
	Trace     int                         `json:"trace"`
	Seeds     []int64                     `json:"seeds"`
	Workloads map[string]*workloadSamples `json:"workloads"`
}

type hostInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

type workloadSamples struct {
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]*metricSamples `json:"metrics"`
}

type metricSamples struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runAll runs every workload `runs` times, each run in a fresh child
// process so that peak memory is the workload's own, and prints each
// metric's median, quartiles and run-to-run spread. It returns the exit
// code: non-zero when a run failed or an op was incorrect.
func runAll(out io.Writer, runs int, seed int64, seconds float64, trace int, smoke bool, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	set := sampleSet{
		Host:      hostInfo{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()},
		Seconds:   seconds,
		Trace:     trace,
		Workloads: map[string]*workloadSamples{},
	}
	for r := 0; r < runs; r++ {
		set.Seeds = append(set.Seeds, seed+int64(r))
	}
	code := 0
	for _, w := range workloads {
		ws := &workloadSamples{Metrics: map[string]*metricSamples{}}
		set.Workloads[w.name] = ws
		for _, s := range set.Seeds {
			args := []string{"--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace)}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, s, err)
				code = 1
				continue
			}
			res, err := lastLineResult(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, s, err)
				code = 1
				continue
			}
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			if !res.Correct {
				code = 1
			}
			for name, v := range res.Metrics {
				ms := ws.Metrics[name]
				if ms == nil {
					ms = &metricSamples{Unit: v.Unit}
					ws.Metrics[name] = ms
				}
				ms.Values = append(ms.Values, v.Value)
			}
			fmt.Fprintf(out, "ran %s seed %d: ops %d ops_failed %d\n", w.name, s, res.Attempted, res.Failed)
		}
	}

	defs := endToEndMetrics
	if trace != 0 {
		defs = perLayerMetrics
	}
	fmt.Fprintf(out, "\n%d cores, GOMAXPROCS %d, %s, %g s per run, %d run(s) per workload\n",
		set.Host.Cores, set.Host.GOMAXPROCS, set.Host.Go, seconds, runs)
	for _, w := range workloads {
		ws := set.Workloads[w.name]
		fmt.Fprintf(out, "\n%s: ops %d ops_failed %d\n", w.name, ws.Attempted, ws.Failed)
		for _, d := range defs {
			if ms := ws.Metrics[d.name]; ms != nil {
				fmt.Fprintf(out, "  %-32s %s spread %.2f%%\n", d.name, summarize(ms.Values).format(d.unit), 100*spreadShare(ms.Values))
			}
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	return code
}

// lastLineResult parses the result a run printed as its last line.
func lastLineResult(stdout []byte) (result, error) {
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	var res result
	dec := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1])))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
