// Command cvm-metrics inspects and compares the JSON metrics reports the
// other tools emit (cvm-run -metrics, cvm-bench -metrics, cvm-node
// -metrics).
//
// Usage:
//
//	cvm-metrics show profile.json
//	cvm-metrics compare baseline.json current.json
//	cvm-metrics compare -tol 0.10 -hard-latency BASELINE_metrics.json profile.json
//	cvm-metrics diff-backends sim.json loopback.json
//	cvm-metrics scrape 127.0.0.1:8100
//
// diff-backends gates the sim-vs-real counter equivalence: the
// backend-invariant sync counters must match exactly between a
// simulator report and a real-backend report of the same run, while
// time-typed metrics (virtual vs wall nanoseconds) print side by side.
// scrape probes a live cvm-node debug server (-debug-addr) without
// needing curl: /healthz must answer and /metrics must be non-trivial.
//
// compare diffs two metrics reports: count drift in either direction
// fails — virtual-time runs are deterministic, so event counts must
// match exactly — and mean-latency increases beyond -tol warn, or fail
// with -hard-latency. The exit status is nonzero iff any finding fails,
// so the command gates `make check` and CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cvm/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-metrics:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cvm-metrics <show|compare|diff-backends|scrape> [flags] <file|addr>...")
	}
	switch args[0] {
	case "show":
		return runShow(args[1:], out)
	case "compare":
		return runCompare(args[1:], out)
	case "diff-backends":
		return runDiffBackends(args[1:], out)
	case "scrape":
		return runScrape(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want show, compare, diff-backends or scrape)", args[0])
	}
}

// runShow prints the human-readable profile of a JSON metrics report.
func runShow(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cvm-metrics show", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cvm-metrics show <report.json>")
	}
	rep, err := readReportFile(fs.Arg(0))
	if err != nil {
		return err
	}
	return rep.WriteText(out)
}

// runCompare diffs two JSON metrics reports and exits nonzero when the
// current file regresses past tolerance.
func runCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cvm-metrics compare", flag.ContinueOnError)
	var (
		tol         = fs.Float64("tol", metrics.DefaultCompareOpts.LatencyTol, "relative latency tolerance (0.25 = +25% mean before a finding)")
		hardLatency = fs.Bool("hard-latency", false, "fail (not just warn) on latency regressions beyond -tol")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: cvm-metrics compare [flags] <baseline.json> <current.json>")
	}
	if *tol < 0 {
		return fmt.Errorf("-tol must be >= 0, got %v", *tol)
	}
	basePath, curPath := fs.Arg(0), fs.Arg(1)
	baseRep, err := readReportFile(basePath)
	if err != nil {
		return err
	}
	curRep, err := readReportFile(curPath)
	if err != nil {
		return err
	}
	opts := metrics.DefaultCompareOpts
	opts.LatencyTol = *tol
	opts.HardLatency = *hardLatency
	findings := metrics.CompareReports(baseRep, curRep, opts)

	fails := 0
	for _, f := range findings {
		if f.Level == metrics.LevelFail {
			fails++
		}
		fmt.Fprintf(out, "%s %s: %s\n", f.Level, f.Path, f.Msg)
	}
	if fails > 0 {
		return fmt.Errorf("%d regression(s) beyond tolerance (%d finding(s) total)", fails, len(findings))
	}
	fmt.Fprintf(out, "ok: %s within tolerance of %s (%d warning(s))\n", curPath, basePath, len(findings))
	return nil
}
