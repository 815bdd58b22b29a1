// Command bench is the repository's benchmark: four workloads over the
// simulator and the real runtime, end-to-end host-time metrics with
// nothing attached, and a traced mode that attributes host time to the
// layers. See README.md in this directory and BENCHMARK.json at the
// root of the repository.
//
//	go run ./bench --workload sim-grid --seed 1 --seconds 20 --trace 0
//	go run ./bench -runs 10 -out set.json     # every workload, ten seeds
//	go run ./bench -compare a.json b.json     # two sets against the bounds
//	go run ./bench -smoke                     # every workload, tiny inputs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

var processStart = time.Now()

// setupReps is how often a run repeats its set-up; setup_s is the
// median, so one slow set-up does not decide it.
const setupReps = 3

// metricDef names one metric; BENCHMARK.json carries the same names
// and units (a test keeps the two in step) plus the bounds.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"alt_pass_s", "s"},
	{"cell_geomean_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload once and print its result as the last line")
		seed         = flag.Int64("seed", 1, "seed: shuffles cell order, generates the diff kernels' pages, keys the lossy cell's fault schedule")
		seconds      = flag.Float64("seconds", 20, "how long one run measures")
		traceFlag    = flag.Int("trace", 0, "0: end-to-end metrics with nothing attached; 1: per-layer metrics from a span-recorded run")
		smoke        = flag.Bool("smoke", false, "size test, one round: a seconds-long check that everything runs")
		spansOut     = flag.String("spans", "", "traced run: write every span with its self time to this file")
		runs         = flag.Int("runs", 1, "without -workload: runs per workload, seeds seed..seed+runs-1")
		out          = flag.String("out", "", "without -workload: write the sample set as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two sample sets (arguments: a.json b.json) against the bounds in BENCHMARK.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: bench -compare a.json b.json")
		}
		os.Exit(compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	case *workloadName != "":
		w := findWorkload(*workloadName)
		if w == nil {
			fatalf("unknown workload %q", *workloadName)
		}
		// A run that printed its result exits 0 even when ops failed:
		// the result line says so.
		if _, err := runWorkload(os.Stdout, w, options{
			seed: *seed, seconds: *seconds, traced: *traceFlag != 0, smoke: *smoke, spansOut: *spansOut}); err != nil {
			fatalf("%v", err)
		}
	default:
		os.Exit(runAll(os.Stdout, *runs, *seed, *seconds, *traceFlag, *smoke, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

type options struct {
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	spansOut string
}

// runWorkload runs one workload once: set-up, timed rounds for about
// opt.seconds, in a traced run the layer kernels, then the report, whose
// last line is the result as JSON.
func runWorkload(out io.Writer, w *workload, opt options) (result, error) {
	b := &bench{
		options: opt,
		w:       w,
		cells:   w.cells(opt.smoke),
		rng:     rand.New(rand.NewSource(opt.seed)),
		led:     newLedger(),
		cellMs:  map[string][]float64{},
		extra:   map[string][]float64{},
	}
	if opt.traced {
		b.recorder = newSpanRecorder()
	}

	beforeSetup := sec(time.Since(processStart))
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		w.warm(b)
		setups = append(setups, sec(time.Since(start)))
	}
	setup := beforeSetup + median(setups)

	// Timed rounds. A traced run spends half its time here and the
	// rest in the layer kernels.
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.traced {
		budget /= 2
	}
	start := time.Now()
	var longest time.Duration
	for rounds := 0; ; rounds++ {
		// Stop when most of another round would overrun the budget.
		if rounds > 0 && (opt.smoke || time.Since(start)+longest/2 > budget) {
			break
		}
		t := time.Now()
		w.round(b)
		if d := time.Since(t); d > longest {
			longest = d
		}
	}

	values := map[string]float64{}
	defs := endToEndMetrics
	if opt.traced {
		defs = perLayerMetrics
		b.layerMetrics(values)
		if opt.spansOut != "" {
			if err := writeSpanFile(opt.spansOut, b.recorder.spans); err != nil {
				return result{}, err
			}
		}
	} else {
		values["setup_s"] = setup
		values["pass_s"] = median(b.pass)
		values["alt_pass_s"] = median(b.alt)
		values["cell_geomean_ms"] = b.cellGeomean()
		values["peak_rss_mb"] = peakRSSMB()
	}

	res := result{
		Correct:   b.led.failed == 0,
		Attempted: b.led.attempted,
		Failed:    b.led.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, b.report(out, res, defs, setups)
}

// cellGeomean is the geometric mean over the cells of each cell's
// median host ms in the primary configuration.
func (b *bench) cellGeomean() float64 {
	var meds []float64
	for _, xs := range b.cellMs {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// report prints the samples behind the timings, each with its count and
// unit, the failures if any, and the result line last.
func (b *bench) report(out io.Writer, res result, defs []metricDef, setups []float64) error {
	p := func(format string, args ...any) { fmt.Fprintf(out, format, args...) }
	p("workload %s seed %d traced %v GOMAXPROCS %d %s\n", b.w.name, b.seed, b.traced, runtime.GOMAXPROCS(0), runtime.Version())
	p("ops %d ops_failed %d\n", res.Attempted, res.Failed)
	for _, note := range b.led.notes {
		p("failed: %s\n", note)
	}
	p("set-up            %s\n", summarize(setups).format("s"))
	p("pass              %s\n", summarize(b.pass).format("s"))
	p("alt pass          %s\n", summarize(b.alt).format("s"))
	if b.traced {
		p("traced pass       %s\n", summarize(b.tracedPass).format("s"))
	}
	keys := make([]string, 0, len(b.cellMs))
	for k := range b.cellMs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p("cell %-24s %s\n", k, summarize(b.cellMs[k]).format("ms"))
	}
	if b.traced {
		for _, t := range spanTotals(b.recorder.spans) {
			p("span %-28s n=%d total %.3f ms self %.3f ms\n", t.Name, t.Count, ms(t.Total), ms(t.Self))
		}
	}
	for _, d := range defs {
		p("metric %-32s %.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 when
// the platform has no /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
