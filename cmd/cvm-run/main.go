// Command cvm-run executes one application of the paper's suite on a
// simulated CVM cluster and prints its statistics.
//
// Usage:
//
//	cvm-run -app sor -nodes 8 -threads 2 -size small
//	cvm-run -app sor -nodes 8 -threads 1,2,4 -parallel 3
//	cvm-run -app waternsq -nodes 4 -threads 2 -size test -report -metrics profile.json
//
// Applications: barnes, fft, ocean, sor, swm750, watersp, waternsq,
// waternsq-noopts, waternsq-localbarrier. Sizes: test, small, paper.
//
// -threads accepts a comma-separated list; the resulting configurations
// are independent simulations and run concurrently across -parallel
// worker goroutines (0 = all CPUs). Instrumented runs (-trace, -metrics,
// -metrics-csv, -report, -check) need a single -threads level; tracing,
// metrics and the invariant checker can be combined in one run.
//
// -faults injects deterministic network and node faults, e.g.
//
//	cvm-run -app sor -size test -faults 'drop=0.01,dup=0.001' -fault-seed 7
//
// The run must still verify against the sequential reference; the
// report gains a transport section (retransmits, suppressed duplicates).
// -check attaches the protocol invariant checker and fails the run on
// any violation.
//
// -transport selects the execution backend: "sim" (default) is the
// deterministic virtual-time simulator; "loopback" runs the same
// application on the real runtime (internal/rt) over an in-process
// channel transport in wall time. The loopback backend produces the
// same checksum as the simulator, and it supports -trace, -metrics,
// -metrics-csv and -report with wall-clock timestamps in place of
// virtual time (compare the two with cvm-metrics diff-backends). It
// has no virtual-time machinery beyond that: fault injection, -check,
// -metrics-interval, -engine-workers and thread sweeps stay
// simulator-only. For multi-process clusters over TCP, see cvm-node.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/harness"
	"cvm/internal/metrics"
	"cvm/internal/netsim"
	"cvm/internal/rt"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-run:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("cvm-run", flag.ContinueOnError)
	var (
		appName  = fs.String("app", "sor", "application: "+strings.Join(apps.Names(), ", "))
		nodes    = fs.Int("nodes", 8, "number of nodes (processors)")
		threads  = fs.String("threads", "1", "application threads per node (comma-separated list sweeps)")
		size     = fs.String("size", "small", "input scale: test, small, paper")
		parallel = fs.Int("parallel", 0, "worker goroutines for a threads sweep (0 = all CPUs, 1 = sequential)")

		engineWorkers = fs.Int("engine-workers", 0, "conservative parallel engine worker count (0 = sequential engine)")
		compressDiffs = fs.Bool("compress-diffs", false, "account diff messages at their compressed wire size (simulator only; the real transport always compresses)")

		faults    = fs.String("faults", "", "deterministic fault spec, e.g. 'drop=0.01,dup=0.001,reorder=0.005,jitter=100us,pause=1:5ms:2ms'")
		faultSeed = fs.Uint64("fault-seed", 1, "fault-schedule seed (same spec + seed = same schedule, byte for byte)")
		checkRun  = fs.Bool("check", false, "attach the protocol invariant checker; any violation fails the run")

		backend = fs.String("transport", "sim", "execution backend: sim (deterministic simulator) or loopback (real runtime, in-process)")
	)
	var inst harness.Instruments
	inst.Register(fs, "", "trace", "trace-limit", "metrics", "metrics-csv", "report", "metrics-interval", "metrics-top", "cpuprofile", "memprofile")
	if err := inst.Parse(fs, args); err != nil {
		return err
	}
	if *engineWorkers < 0 {
		return fmt.Errorf("-engine-workers must be >= 0, got %d", *engineWorkers)
	}
	var fp *cvm.FaultPlan
	if *faults != "" {
		var err error
		if fp, err = cvm.ParseFaults(*faults, *faultSeed); err != nil {
			return err
		}
	} else if harness.IsSet(fs, "fault-seed") {
		return fmt.Errorf("-fault-seed needs -faults")
	}

	sz, err := apps.ParseSize(*size)
	if err != nil {
		return err
	}
	levels, err := harness.ParseInts("threads", *threads)
	if err != nil {
		return err
	}
	// Instruments observe one run, and the real runtime has no sweep.
	single := inst.Trace != "" || inst.WantMetrics() || *checkRun || *backend == "loopback"
	if single && len(levels) != 1 {
		return fmt.Errorf("-trace/-metrics/-report/-check and -transport loopback need a single -threads level, got %q", *threads)
	}
	meta := metrics.Meta{App: *appName, Config: fmt.Sprintf("%dx%d size=%s", *nodes, levels[0], *size)}
	rec := inst.Recorder(*nodes, levels[0])

	stopProfiles, err := inst.StartProfiles()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()

	switch *backend {
	case "sim":
	case "loopback":
		// The real runtime meters and traces in wall time, but it has no
		// simulated faults to inject, no DES engine to parallelize, no
		// virtual-time invariant checker, and no utilization timeline.
		// Reject those combinations rather than ignore them.
		switch {
		case *checkRun:
			return fmt.Errorf("-check is the simulator's virtual-time invariant checker; drop it with -transport loopback")
		case inst.Interval > 0:
			return fmt.Errorf("-metrics-interval shapes the simulator's virtual-time timeline; drop it with -transport loopback")
		case fp != nil:
			return fmt.Errorf("-transport loopback cannot inject simulated faults; drop -faults")
		case *engineWorkers > 0:
			return fmt.Errorf("-engine-workers tunes the simulator's DES engine; drop it with -transport loopback")
		case *compressDiffs:
			return fmt.Errorf("-compress-diffs tunes the simulator's byte accounting; the real transport always compresses, drop it with -transport loopback")
		}
		return runLoopback(out, *appName, sz, *size, *nodes, levels[0], &inst, meta, rec)
	default:
		return fmt.Errorf("-transport must be sim or loopback, got %q", *backend)
	}

	// One path for a sweep and an instrumented run alike: a cell per
	// thread level through the harness pool, every requested variation
	// and instrument a field of the cell. Tracer, checker and registry
	// observe without advancing virtual time, so they compose without
	// perturbing each other or the run; a shared read-only fault plan
	// keys each cell's schedule on its own simulation state, so a sweep
	// stays deterministic at any -parallel level.
	var chk *check.Checker
	var tracer cvm.Tracer
	if rec != nil {
		tracer = rec
	}
	if *checkRun {
		chk = check.New(*nodes, levels[0])
		tracer = trace.Tee(tracer, chk)
	}
	cells, err := harness.GridCells([]string{*appName}, sz, harness.GridShapes([]int{*nodes}, levels))
	if err != nil {
		return err
	}
	if single && len(cells) == 0 {
		return fmt.Errorf("%s does not support %d threads per node", *appName, levels[0])
	}
	for i := range cells {
		cells[i].Mut = func(cfg *cvm.Config) {
			cfg.Faults = fp
			cfg.EngineWorkers = *engineWorkers
			cfg.CompressDiffs = *compressDiffs
			cfg.Tracer = tracer
		}
	}
	inst.Meter(cells)
	results, err := harness.RunCells(cells, sz, nil, *parallel)
	if err != nil {
		return err
	}
	res, snap := harness.Collect(cells, results)
	for i, t := range levels {
		st, ok := res[harness.Key{App: *appName, Nodes: *nodes, Threads: t}]
		if !ok {
			fmt.Fprintf(out, "%s does not support %d threads per node; skipped\n", *appName, t)
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := report(out, *appName, *nodes, t, *size, st); err != nil {
			return err
		}
		if fp != nil {
			if err := reportTransport(out, st); err != nil {
				return err
			}
		}
	}
	if chk != nil {
		chk.Finish()
		if n := chk.Count(); n != 0 {
			var b strings.Builder
			chk.Report(&b)
			fmt.Fprint(out, b.String())
			return fmt.Errorf("invariant checker found %d violation(s)", n)
		}
		fmt.Fprintln(out, "\ninvariant checker: no violations")
	}
	return inst.Emit(out, meta, rec, snap, nil)
}

// runLoopback executes one run on the real runtime over the in-process
// loopback transport and prints the wall-time report. The checksum
// still verifies against the sequential reference, and — by the
// transport-equivalence guarantee (DESIGN.md §11) — equals the
// simulator's bit for bit at the same configuration. With -metrics or
// -report the run collects the wall-clock protocol metrics into the
// simulator's report shape (plus a "real transport" section), so the
// two backends' profiles are directly comparable — see
// cvm-metrics diff-backends.
func runLoopback(out io.Writer, app string, size apps.Size, sizeName string, nodes, threads int,
	inst *harness.Instruments, meta metrics.Meta, rec *trace.Recorder) error {
	cfg := rt.DefaultConfig(nodes, threads)
	if inst.WantMetrics() {
		cfg.Metrics = rt.NewMetrics()
	}
	if rec != nil {
		cfg.Tracer = rec
	}
	res, sum, err := apps.RunLoopback(app, size, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s on %d nodes x %d threads (%s input) over loopback: result verified against sequential reference\n\n",
		app, nodes, threads, sizeName)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "wall time\t%v\n", res.Elapsed)
	fmt.Fprintf(tw, "checksum\t%v\n", sum)
	fmt.Fprintf(tw, "messages (barrier/lock/diff)\t%d / %d / %d\n",
		res.Net.Msgs[transport.ClassBarrier], res.Net.Msgs[transport.ClassLock],
		res.Net.Msgs[transport.ClassDiff])
	fmt.Fprintf(tw, "total messages\t%d\n", res.Net.TotalMsgs())
	fmt.Fprintf(tw, "bandwidth\t%d KB\n", res.Net.TotalBytes()/1024)
	if err := tw.Flush(); err != nil {
		return err
	}

	var snap *metrics.Snapshot
	if cfg.Metrics != nil {
		snap = cfg.Metrics.Snapshot()
	}
	return inst.Emit(out, meta, rec, snap, rt.RealStats("loopback", nodes, res.Elapsed, res.Net))
}

// reportTransport prints the fault model's counters of a faulted run:
// the retransmissions drops cost and the duplicate replicas receivers
// discarded.
func reportTransport(out io.Writer, st cvm.Stats) error {
	fmt.Fprintln(out)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "retransmits\t%d\n", st.Total.Retransmits)
	fmt.Fprintf(tw, "duplicates suppressed\t%d\n", st.Total.DupsSuppressed)
	return tw.Flush()
}

// report prints one run's statistics.
func report(out io.Writer, appName string, nodes, threads int, size string, st cvm.Stats) error {
	fmt.Fprintf(out, "%s on %d nodes x %d threads (%s input): result verified against sequential reference\n\n",
		appName, nodes, threads, size)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "steady-state wall time\t%v\n", st.Wall)
	fmt.Fprintf(tw, "user time (all nodes)\t%v\n", st.Total.UserTime)
	fmt.Fprintf(tw, "barrier wait\t%v\n", st.Total.BarrierWait)
	fmt.Fprintf(tw, "fault wait\t%v\n", st.Total.FaultWait)
	fmt.Fprintf(tw, "lock wait\t%v\n", st.Total.LockWait)
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "thread switches\t%d\n", st.Total.ThreadSwitches)
	fmt.Fprintf(tw, "remote faults\t%d\n", st.Total.RemoteFaults)
	fmt.Fprintf(tw, "remote locks\t%d\n", st.Total.RemoteLocks)
	fmt.Fprintf(tw, "outstanding faults\t%d\n", st.Total.OutstandingFaults)
	fmt.Fprintf(tw, "outstanding locks\t%d\n", st.Total.OutstandingLocks)
	fmt.Fprintf(tw, "block same page\t%d\n", st.Total.BlockSamePage)
	fmt.Fprintf(tw, "block same lock\t%d\n", st.Total.BlockSameLock)
	fmt.Fprintf(tw, "diffs created\t%d\n", st.Total.DiffsCreated)
	fmt.Fprintf(tw, "diffs used\t%d\n", st.Total.DiffsUsed)
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "messages (barrier/lock/diff)\t%d / %d / %d\n",
		st.Net.Msgs[netsim.ClassBarrier], st.Net.Msgs[netsim.ClassLock],
		st.Net.Msgs[netsim.ClassDiff])
	fmt.Fprintf(tw, "total messages\t%d\n", st.Net.TotalMsgs())
	fmt.Fprintf(tw, "bandwidth\t%d KB\n", st.Net.TotalBytes()/1024)
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "D-cache misses\t%d\n", st.MemTotal.DCacheMisses)
	fmt.Fprintf(tw, "D-TLB misses\t%d\n", st.MemTotal.DTLBMisses)
	return tw.Flush()
}
