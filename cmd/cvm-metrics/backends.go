package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"cvm/internal/metrics"
)

// runDiffBackends compares a simulator metrics report against a
// real-backend one for the same app and configuration. The
// backend-invariant sync counters (lock acquires/releases, barrier and
// local-barrier arrivals, reductions) are program-determined — one per
// application call — so they must match exactly; any drift fails the
// command. Everything else differs by construction (the simulator's
// lazy protocol vs the runtime's eager full-invalidate one, virtual
// time vs wall time) and is reported side by side, ungated.
func runDiffBackends(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cvm-metrics diff-backends", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: cvm-metrics diff-backends <sim-report.json> <real-report.json>")
	}
	simPath, realPath := fs.Arg(0), fs.Arg(1)
	sim, err := readReportFile(simPath)
	if err != nil {
		return err
	}
	real, err := readReportFile(realPath)
	if err != nil {
		return err
	}
	// The Real section is how a report declares its backend: the
	// simulator never writes one, every wall-clock backend does.
	if sim.Real != nil {
		return fmt.Errorf("%s is a real-backend report (%s); the first argument must be a simulator report", simPath, sim.Real.Backend)
	}
	if real.Real == nil {
		return fmt.Errorf("%s is a simulator report; the second argument must be a real-backend report", realPath)
	}
	if sim.Meta != real.Meta {
		fmt.Fprintf(out, "note: comparing different runs: sim %q %q vs real %q %q\n",
			sim.Meta.App, sim.Meta.Config, real.Meta.App, real.Meta.Config)
	}
	fmt.Fprintf(out, "sim %s (%s) vs %s %s (%s)\n\n",
		sim.Meta.App, sim.Meta.Config, real.Real.Backend, real.Meta.App, real.Meta.Config)

	simCounts := sim.Snapshot.CounterValues()
	realCounts := real.Snapshot.CounterValues()
	invariant := make(map[string]bool)
	for _, name := range metrics.BackendInvariantCounters() {
		invariant[name] = true
	}

	var mismatches []string
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "counter\tsim\treal\tgate\n")
	names := make([]string, 0, len(simCounts))
	for name := range simCounts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s, r := simCounts[name], realCounts[name]
		if !invariant[name] {
			if s != 0 || r != 0 {
				fmt.Fprintf(tw, "%s\t%d\t%d\tinfo\n", name, s, r)
			}
			continue
		}
		verdict := "ok"
		if s != r {
			verdict = "MISMATCH"
			mismatches = append(mismatches,
				fmt.Sprintf("%s: sim %d, real %d", name, s, r))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\n", name, s, r, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Time-typed metrics: virtual vs wall nanoseconds, side by side.
	fmt.Fprintf(out, "\ntime metrics (sim = virtual, real = wall; informational)\n")
	simHist := histTotals(sim.Snapshot)
	realHist := histTotals(real.Snapshot)
	tw = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tsim count\tsim mean\treal count\treal mean\n")
	hnames := make([]string, 0, len(simHist))
	for name := range simHist {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		s, r := simHist[name], realHist[name]
		if s.Count == 0 && r.Count == 0 {
			continue
		}
		if structurallyZeroReal[name] && r.Count == 0 {
			// The real backend cannot produce this metric by
			// construction; an empty real column next to a populated sim
			// one reads as drift where there is none. (A nonzero count
			// still prints — that genuinely is news.)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n",
			name, s.Count, meanStr(name, s), r.Count, meanStr(name, r))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if len(mismatches) > 0 {
		return fmt.Errorf("backend-invariant counters diverge:\n  %s",
			strings.Join(mismatches, "\n  "))
	}
	fmt.Fprintf(out, "\nok: all %d backend-invariant counters match exactly\n", len(invariant))
	return nil
}

func readReportFile(path string) (*metrics.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep, err := metrics.ReadReport(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rep, nil
}

// histTotals folds every histogram across scopes into per-name totals.
func histTotals(s *metrics.Snapshot) map[string]metrics.Histogram {
	out := make(map[string]metrics.Histogram)
	s.EachHistogram(func(_, name string, h *metrics.Histogram) {
		t := out[name]
		t.Count += h.Count
		t.Sum += h.Sum
		out[name] = t
	})
	return out
}

// unitless histograms observe bytes or queue depths, not nanoseconds.
var unitless = map[string]bool{"diff_bytes": true, "run_queue": true}

// structurallyZeroReal lists time metrics the real runtime cannot
// record by construction, suppressed from the informational table when
// (as expected) empty on the real side. lock_3hop: the runtime's lock
// managers are centralized, so every remote grant is a 2-hop exchange —
// the 3-hop path exists only in the simulator's distributed-queue
// protocol. Pinned by TestDiffBackendsSuppressesStructurallyZero.
var structurallyZeroReal = map[string]bool{"lock_3hop": true}

func meanStr(name string, h metrics.Histogram) string {
	if h.Count == 0 {
		return "-"
	}
	mean := h.Sum / h.Count
	if unitless[name] {
		return fmt.Sprintf("%d", mean)
	}
	return (time.Duration(mean) * time.Nanosecond).Round(100 * time.Nanosecond).String()
}

// runScrape probes one cvm-node debug server: /healthz must answer ok
// and /metrics must serve a report whose counters are not all zero (a
// node that joined but never observed anything is a wiring bug, not a
// healthy node). It exists so shell-level smoke tests don't need curl.
func runScrape(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cvm-metrics scrape", flag.ContinueOnError)
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cvm-metrics scrape [flags] <host:port or http://host:port>")
	}
	base := fs.Arg(0)
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: *timeout}

	body, err := get(client, base+"/healthz")
	if err != nil {
		return err
	}
	if strings.TrimSpace(string(body)) != "ok" {
		return fmt.Errorf("%s/healthz answered %q, want ok", base, strings.TrimSpace(string(body)))
	}

	body, err = get(client, base+"/metrics")
	if err != nil {
		return err
	}
	rep, err := metrics.ReadReport(body)
	if err != nil {
		return fmt.Errorf("%s/metrics: %v", base, err)
	}
	var events int64
	rep.Snapshot.EachCounter(func(_ string, c *metrics.Counter) { events += int64(*c) })
	rep.Snapshot.EachHistogram(func(_, _ string, h *metrics.Histogram) { events += h.Count })
	if events == 0 {
		return fmt.Errorf("%s/metrics: all counters zero — the node is up but observed nothing", base)
	}
	fmt.Fprintf(out, "ok: %s healthy, %d observations (%s %s)\n",
		base, events, rep.Meta.App, rep.Meta.Config)
	return nil
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}
