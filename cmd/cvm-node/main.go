// Command cvm-node is one node of a real multi-process CVM cluster: it
// runs the paper's applications over actual TCP connections instead of
// the deterministic simulator, using the internal/rt runtime and the
// internal/cluster control plane.
//
// One process per node. The coordinator (node 0) owns the run
// configuration and listens for members; members join it and take the
// configuration from the wire:
//
//	cvm-node -listen :7000 -nodes 4 -app sor -size test   # node 0
//	cvm-node -join host:7000 -node-id 1 -nodes 4          # nodes 1..3
//	cvm-node -join host:7000 -node-id 2 -nodes 4
//	cvm-node -join host:7000 -node-id 3 -nodes 4
//
// The coordinator prints the run's checksum; with -oracle it also runs
// the deterministic simulator at the same configuration in-process and
// fails unless the checksums match exactly (the applications' quantized
// accumulation makes any correct release-consistent execution
// bit-identical; see DESIGN.md §11).
//
// -data sets the host:port the node's DSM data listener binds (default
// 127.0.0.1:0, single-host clusters); on real multi-host clusters give
// each node an address its peers can reach.
//
// -debug-addr starts a read-only introspection HTTP server on any node:
// /healthz (liveness), /status (epoch, per-thread states, per-peer
// traffic), /metrics (wall-clock metrics report as JSON, or Prometheus
// text with ?format=prom), and /debug/pprof/ for live profiling. See
// DESIGN.md §11 and "Observing a real cluster" in the README.
//
// Every node collects wall-clock protocol metrics; members ship theirs
// to the coordinator in the result message, and the coordinator merges
// them in node order. -report prints the merged profile, -metrics FILE
// writes it as JSON (compare against a simulator report with
// cvm-metrics diff-backends), and -trace FILE records node 0's protocol
// events as Chrome trace JSON — all three coordinator-only.
//
// On SIGINT or SIGTERM the node shuts down gracefully: it severs its
// control and data connections so every peer's pending step fails
// promptly with an attributed error instead of hanging, drains the
// debug server, and exits nonzero. A second signal forces exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/cluster"
	"cvm/internal/debugsrv"
	"cvm/internal/harness"
	"cvm/internal/metrics"
	"cvm/internal/rt"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-node:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cvm-node", flag.ContinueOnError)
	var (
		listen  = fs.String("listen", "", "coordinate the cluster: control address to listen on (this process is node 0)")
		join    = fs.String("join", "", "join a cluster: the coordinator's control address")
		nodeID  = fs.Int("node-id", 0, "this node's id (members: 1..nodes-1; the coordinator is always 0)")
		nodes   = fs.Int("nodes", 4, "cluster size in nodes (members may omit it to accept the coordinator's)")
		threads = fs.Int("threads", 1, "application threads per node (coordinator only)")
		appName = fs.String("app", "sor", "application (coordinator only): "+strings.Join(apps.Names(), ", "))
		size    = fs.String("size", "test", "input scale (coordinator only): test, small, paper")
		page    = fs.Int("page", 4096, "coherence unit in bytes (coordinator only)")
		data    = fs.String("data", "127.0.0.1:0", "host:port for this node's DSM data listener (must be peer-reachable)")
		timeout = fs.Duration("timeout", 2*time.Minute, "bound on every control step, mesh formation included")
		oracle  = fs.Bool("oracle", false, "coordinator only: also run the deterministic simulator and require an exact checksum match")
		quiet   = fs.Bool("quiet", false, "suppress progress messages")

		debugAddr   = fs.String("debug-addr", "", "serve /healthz, /status, /metrics and /debug/pprof on this host:port")
		debugLinger = fs.Duration("debug-linger", 0, "keep the debug server up this long after the run ends (lets scrapers catch fast runs)")
	)
	// Wall-clock instruments: the merged profile of every node, and node
	// 0's protocol events.
	var inst harness.Instruments
	inst.Register(fs, "coordinator only: ", "metrics", "report", "metrics-top", "trace", "trace-limit")
	if err := inst.Parse(fs, args, "debug-addr"); err != nil {
		return err
	}
	if (*listen == "") == (*join == "") {
		return fmt.Errorf("exactly one of -listen (coordinator) or -join (member) is required")
	}
	if *timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %v", *timeout)
	}
	if *timeout > time.Hour {
		return fmt.Errorf("-timeout %v exceeds the 1h bound (a wedged cluster should fail, not linger)", *timeout)
	}
	opts := cluster.Options{DataAddr: *data, Timeout: *timeout, Log: out}
	if *quiet {
		opts.Log = io.Discard
	}

	// Graceful shutdown: the first SIGINT/SIGTERM severs this node's
	// cluster connections (failing every blocked step, local and remote,
	// with an attributed error); a second one forces exit.
	interrupt := make(chan struct{})
	interrupted := make(chan struct{}) // closed after the message printed
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		s := <-sigCh
		fmt.Fprintf(os.Stderr, "cvm-node: caught %v, aborting the run; partial results are discarded\n", s)
		close(interrupted)
		close(interrupt)
		s = <-sigCh
		fmt.Fprintf(os.Stderr, "cvm-node: caught second %v, forcing exit\n", s)
		os.Exit(1)
	}()
	opts.Interrupt = interrupt

	// Live introspection: the debug server comes up before the handshake
	// (so /healthz answers while the node waits for peers) and attaches
	// its status and metrics sources when the run starts.
	var live liveRun
	if *debugAddr != "" {
		srv, err := debugsrv.Start(*debugAddr, debugsrv.Sources{
			Status: live.status,
			Report: live.report,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(opts.Log, "debug server on http://%s (/healthz /status /metrics /debug/pprof)\n", srv.Addr())
		defer func() {
			if *debugLinger > 0 {
				select {
				case <-interrupted: // don't linger on an aborted run
				case <-time.After(*debugLinger):
				}
			}
			srv.Shutdown(2 * time.Second)
		}()
	}
	live.topN = inst.Top
	opts.Started = live.started

	if *join != "" {
		for _, name := range []string{"app", "size", "threads", "page", "oracle",
			"metrics", "report", "trace", "trace-limit"} {
			if harness.IsSet(fs, name) {
				return fmt.Errorf("-%s is the coordinator's to set; members take it from the wire", name)
			}
		}
		if *nodeID < 1 {
			return fmt.Errorf("-node-id must be 1..nodes-1 for members, got %d", *nodeID)
		}
		nodesArg := 0
		if harness.IsSet(fs, "nodes") {
			nodesArg = *nodes
		}
		if nodesArg != 0 && *nodeID >= nodesArg {
			return fmt.Errorf("-node-id %d outside a cluster of %d nodes", *nodeID, nodesArg)
		}
		outcome, err := cluster.Join(*join, *nodeID, nodesArg, opts)
		if err != nil {
			return interruptedErr(err, interrupted)
		}
		fmt.Fprintf(out, "node %d: ok, checksum %v\n", *nodeID, outcome.Checksum)
		return nil
	}

	// Coordinator.
	if *nodeID != 0 {
		return fmt.Errorf("the coordinator is always node 0; drop -node-id %d", *nodeID)
	}
	spec := cluster.Spec{
		App: *appName, Size: *size,
		Nodes: *nodes, Threads: *threads, Page: *page,
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	rec := inst.Recorder(spec.Nodes, spec.Threads)
	if rec != nil {
		opts.Tracer = rec
	}
	outcome, err := cluster.Coordinate(*listen, spec, opts)
	if err != nil {
		return interruptedErr(err, interrupted)
	}
	fmt.Fprintf(out, "%s/%s on %d nodes x %d threads over tcp: checksum %v (verified against sequential reference)\n",
		spec.App, spec.Size, spec.Nodes, spec.Threads, outcome.Checksum)
	fmt.Fprintf(out, "node 0 traffic: %d messages, %d KB, %v elapsed\n",
		outcome.Net.TotalMsgs(), outcome.Net.TotalBytes()/1024, outcome.Elapsed.Round(time.Millisecond))

	meta := metrics.Meta{App: spec.App, Config: fmt.Sprintf("%dx%d size=%s", spec.Nodes, spec.Threads, spec.Size)}
	if err := inst.Emit(out, meta, rec, outcome.Metrics,
		rt.RealStats("tcp", spec.Nodes, outcome.Elapsed, outcome.Net)); err != nil {
		return err
	}

	if *oracle {
		sz, err := apps.ParseSize(spec.Size)
		if err != nil {
			return err
		}
		_, simSum, err := apps.RunConfig(spec.App, sz,
			cvm.DefaultConfig(spec.Nodes, spec.Threads))
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if simSum != outcome.Checksum {
			return fmt.Errorf("%w: tcp cluster %v, simulator %v",
				cluster.ErrChecksum, outcome.Checksum, simSum)
		}
		fmt.Fprintf(out, "oracle: simulator checksum %v matches exactly\n", simSum)
	}
	return nil
}

// interruptedErr makes a signal-induced failure loud and unambiguous.
func interruptedErr(err error, interrupted <-chan struct{}) error {
	select {
	case <-interrupted:
		return fmt.Errorf("run aborted by signal; the cluster's partial results are discarded (underlying: %v)", err)
	default:
		return err
	}
}

// liveRun is the debug server's view of the node: empty until the
// control plane calls started, live afterwards.
type liveRun struct {
	mu    sync.Mutex
	info  *cluster.RunInfo
	start time.Time
	topN  int
}

func (lr *liveRun) started(info cluster.RunInfo) {
	lr.mu.Lock()
	lr.info = &info
	lr.start = time.Now()
	lr.mu.Unlock()
}

func (lr *liveRun) get() (*cluster.RunInfo, time.Time) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.info, lr.start
}

// status backs /status: handshake state before the run, the node's
// spec, epoch, thread states and per-peer traffic once it is live.
func (lr *liveRun) status() any {
	info, start := lr.get()
	if info == nil {
		return map[string]any{"state": "handshaking"}
	}
	return map[string]any{
		"state":      "running",
		"node":       info.Node,
		"app":        info.Spec.App,
		"size":       info.Spec.Size,
		"nodes":      info.Spec.Nodes,
		"threads":    info.Spec.Threads,
		"elapsed_ns": time.Since(start).Nanoseconds(),
		"status":     info.Cluster.Status(),
	}
}

// report backs /metrics: this process's own wall-clock snapshot (one
// node of the cluster; the coordinator's merged report exists only
// after the run).
func (lr *liveRun) report() *metrics.Report {
	info, start := lr.get()
	if info == nil {
		return nil
	}
	rep := metrics.NewReport(metrics.Meta{
		App:    info.Spec.App,
		Config: fmt.Sprintf("%dx%d size=%s", info.Spec.Nodes, info.Spec.Threads, info.Spec.Size),
	}, info.Metrics.Snapshot(), lr.topN)
	rep.Real = rt.RealStats("tcp", info.Spec.Nodes, time.Since(start), info.Conn.Stats())
	return rep
}
