// Command cvm-metrics inspects the JSON metrics reports the other tools
// emit (cvm-run -metrics, cvm-bench -metrics, cvm-node -metrics).
//
// Usage:
//
//	cvm-metrics show profile.json
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
// Two simulator reports of the same run are compared with diff: the
// simulator is deterministic, so a report is byte-identical to its
// baseline or something moved (make metrics-gate).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-metrics:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cvm-metrics <show|diff-backends|scrape> [flags] <file|addr>...")
	}
	switch args[0] {
	case "show":
		return runShow(args[1:], out)
	case "diff-backends":
		return runDiffBackends(args[1:], out)
	case "scrape":
		return runScrape(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want show, diff-backends or scrape)", args[0])
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
