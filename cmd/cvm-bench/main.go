// Command cvm-bench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	cvm-bench -experiment all -size small
//	cvm-bench -experiment fig1
//	cvm-bench -experiment table5 -size paper
//	cvm-bench -experiment fig1 -size test -metrics profile.json -report
//
// Experiments: costs, fig1, table2, table3, fig2, table4, ablation, protocols, table5, scaleout, all.
//
// Every experiment is a table of harness.Cells: independent simulations
// that run concurrently; -parallel N caps the worker count (default: all
// CPUs; 1 reproduces the sequential baseline). -metrics/-report attach a
// metrics registry to every cell of the Figure 1 / Tables 2-3 / Figure 2
// grid and emit the aggregated profile (cell snapshots merge in
// deterministic grid order, so the report is byte-identical at any
// -parallel). Host-time performance of the harness itself is measured by
// `go run ./bench`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cvm/internal/apps"
	"cvm/internal/harness"
	"cvm/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-bench:", err)
		os.Exit(1)
	}
}

// env is what an experiment runs with: the parsed command line, and the
// one grid over 4 and 8 nodes at 1-4 threads that Figure 1, Tables 2-3
// and Figure 2 share.
type env struct {
	out      io.Writer
	progress io.Writer
	size     apps.Size
	parallel int
	inst     harness.Instruments
	meta     metrics.Meta

	scaleNodes   string
	scaleJSON    string
	scaleWorkers int

	shared harness.Results
}

// experiment is one row of the -experiment table: flag help, the doc
// comment's list (TestDocListsExperiments) and validation all derive
// from it. A grid experiment renders from the shared grid; any other
// runs its own cells.
type experiment struct {
	name  string
	inAll bool
	grid  func(io.Writer, harness.Results)
	run   func(*env) error
}

var experiments = []experiment{
	{name: "costs", inAll: true, run: func(e *env) error {
		c, err := harness.MeasureCosts()
		if err == nil {
			harness.WriteCosts(e.out, c)
		}
		return err
	}},
	{name: "fig1", inAll: true, grid: func(w io.Writer, res harness.Results) {
		harness.WriteFigure1(w, res, harness.AppOrder, []int{4, 8}, harness.ThreadLevels)
	}},
	{name: "table2", inAll: true, grid: func(w io.Writer, res harness.Results) {
		harness.WriteTable2(w, res, harness.AppOrder, 8, harness.ThreadLevels)
	}},
	{name: "table3", inAll: true, grid: func(w io.Writer, res harness.Results) {
		harness.WriteTable3(w, res, harness.AppOrder, 8, harness.ThreadLevels)
	}},
	{name: "fig2", inAll: true, grid: func(w io.Writer, res harness.Results) {
		harness.WriteFigure2(w, res, harness.AppOrder, 8, harness.ThreadLevels)
	}},
	{name: "table4", inAll: true, run: func(e *env) error {
		// Barnes is excluded in the paper ("will not run with our
		// default input size on sixteen processors").
		names := []string{"fft", "ocean", "sor", "swm750", "watersp", "waternsq"}
		nodeCounts := []int{4, 8, 16}
		res, err := harness.RunGridParallel(names, e.size,
			harness.GridShapes(nodeCounts, []int{1, 2, 4}), e.progress, e.parallel)
		if err == nil {
			harness.WriteTable4(e.out, res, names, nodeCounts, []int{2, 4})
		}
		return err
	}},
	{name: "ablation", inAll: true, run: runAblations},
	{name: "protocols", inAll: true, run: func(e *env) error {
		pairs, err := harness.CompareProtocols(harness.AppOrder, e.size, 8, 2, e.progress, e.parallel)
		if err == nil {
			harness.WriteProtocols(e.out, pairs, 8, 2)
		}
		return err
	}},
	{name: "table5", inAll: true, run: func(e *env) error {
		rows, err := harness.Table5(e.size, 8, harness.ThreadLevels, e.progress, e.parallel)
		if err == nil {
			harness.WriteTable5(e.out, rows)
		}
		return err
	}},
	// Deliberately not part of "all": its 1024-node points dominate the
	// runtime of everything else combined.
	{name: "scaleout", run: runScaleout},
}

// experimentNames lists every valid -experiment value.
func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, ex := range experiments {
		names = append(names, ex.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("cvm-bench", flag.ContinueOnError)
	e := &env{out: out}
	var (
		name  = fs.String("experiment", "all", "experiment to regenerate: "+experimentNames())
		size  = fs.String("size", "small", "input scale: test, small, paper")
		quiet = fs.Bool("q", false, "suppress progress output")
	)
	fs.IntVar(&e.parallel, "parallel", 0, "worker goroutines for independent runs (0 = all CPUs, 1 = sequential)")
	fs.StringVar(&e.scaleNodes, "scale-nodes", "8,64,256,1024", "comma-separated node counts for the scaleout experiment")
	fs.StringVar(&e.scaleJSON, "scale-json", "BENCH_scaleout.json", "output path for the scaleout experiment's JSON baseline")
	fs.IntVar(&e.scaleWorkers, "scale-workers", 4, "conservative-engine workers for the scaleout experiment (0 = sequential engine)")
	e.inst.Register(fs, "fig1/table2/table3/fig2 grid: ", "metrics", "report", "metrics-interval", "metrics-top")
	e.inst.Register(fs, "", "cpuprofile", "memprofile")
	if err := e.inst.Parse(fs, args); err != nil {
		return err
	}

	var selected []experiment
	gridWanted := false
	for _, ex := range experiments {
		if ex.name == *name || (*name == "all" && ex.inAll) {
			selected = append(selected, ex)
			gridWanted = gridWanted || ex.grid != nil
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown -experiment %q (want one of: %s)", *name, experimentNames())
	}
	if e.inst.WantMetrics() && !gridWanted {
		return fmt.Errorf("-metrics/-report apply to the fig1/table2/table3/fig2 grid; -experiment %s does not run it", *name)
	}
	for _, f := range []string{"scale-nodes", "scale-json", "scale-workers"} {
		if *name != "scaleout" && harness.IsSet(fs, f) {
			return fmt.Errorf("-%s needs -experiment scaleout", f)
		}
	}

	if e.size, err = apps.ParseSize(*size); err != nil {
		return err
	}
	if !*quiet {
		e.progress = os.Stderr
	}
	e.meta = metrics.Meta{App: "grid", Config: fmt.Sprintf("experiment=%s size=%s", *name, *size)}

	stopProfiles, err := e.inst.StartProfiles()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	for _, ex := range selected {
		if ex.grid != nil {
			if err := e.runSharedGrid(); err != nil {
				return err
			}
			ex.grid(out, e.shared)
		} else if err := ex.run(e); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runSharedGrid runs the shared grid once, metered when -metrics or
// -report ask for it, and emits the aggregated profile ahead of the
// first table built from it.
func (e *env) runSharedGrid() error {
	if e.shared != nil {
		return nil
	}
	cells, err := harness.GridCells(harness.AppOrder, e.size, harness.GridShapes([]int{4, 8}, harness.ThreadLevels))
	if err != nil {
		return err
	}
	e.inst.Meter(cells)
	res, err := harness.RunCells(cells, e.size, e.progress, e.parallel)
	if err != nil {
		return err
	}
	var snap *metrics.Snapshot
	e.shared, snap = harness.Collect(cells, res)
	if snap == nil {
		return nil
	}
	if err := e.inst.Emit(e.out, e.meta, nil, snap, nil); err != nil {
		return err
	}
	fmt.Fprintln(e.out)
	return nil
}

func runAblations(e *env) error {
	for _, ab := range []struct {
		title string
		run   func(string, apps.Size) ([]harness.AblationRow, error)
	}{
		{"thread-switch cost sweep (paper limiting factor #5)", harness.AblationSwitchCost},
		{"wire latency sweep (the multi-threading premise)", harness.AblationWireLatency},
	} {
		rows, err := ab.run("waternsq", e.size)
		if err != nil {
			return err
		}
		harness.WriteAblation(e.out, ab.title, rows)
		fmt.Fprintln(e.out)
	}
	sched, err := harness.AblationScheduler("sor", e.size)
	if err == nil {
		harness.WriteSchedulerAblation(e.out, sched)
	}
	return err
}

func runScaleout(e *env) error {
	nodeCounts, err := harness.ParseInts("scale-nodes", e.scaleNodes)
	if err != nil {
		return err
	}
	study, err := harness.RunScaleStudy(nodeCounts, 1, e.size,
		[]bool{false, true}, e.scaleWorkers, e.progress)
	if err != nil {
		return err
	}
	f, err := os.Create(e.scaleJSON)
	if err != nil {
		return err
	}
	if err := harness.WriteScaleBaseline(f, study); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	harness.WriteScaleStudy(e.out, study)
	fmt.Fprintf(e.out, "scaleout: baseline written to %s", e.scaleJSON)
	return nil
}
