package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cvm/internal/metrics"
)

// runErr runs the command line and returns its error.
func runErr(args ...string) error {
	var out bytes.Buffer
	return run(args, &out)
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no role", []string{}, "exactly one of -listen"},
		{"both roles", []string{"-listen", ":0", "-join", "x:1"}, "exactly one of -listen"},
		{"zero timeout", []string{"-listen", ":0", "-timeout", "0"}, "-timeout must be positive"},
		{"negative timeout", []string{"-join", "x:1", "-timeout", "-5s"}, "-timeout must be positive"},
		{"huge timeout", []string{"-listen", ":0", "-timeout", "2h"}, "1h bound"},
		{"malformed timeout", []string{"-listen", ":0", "-timeout", "soon"}, "invalid value"},
		{"member node id zero", []string{"-join", "x:1", "-node-id", "0"}, "-node-id must be 1"},
		{"member node id negative", []string{"-join", "x:1", "-node-id", "-2"}, "-node-id must be 1"},
		{"member node id out of range", []string{"-join", "x:1", "-node-id", "4", "-nodes", "4"}, "outside a cluster of 4"},
		{"member sets app", []string{"-join", "x:1", "-node-id", "1", "-app", "sor"}, "coordinator's to set"},
		{"member sets size", []string{"-join", "x:1", "-node-id", "1", "-size", "test"}, "coordinator's to set"},
		{"member sets threads", []string{"-join", "x:1", "-node-id", "1", "-threads", "2"}, "coordinator's to set"},
		{"member sets oracle", []string{"-join", "x:1", "-node-id", "1", "-oracle"}, "coordinator's to set"},
		{"member sets metrics", []string{"-join", "x:1", "-node-id", "1", "-metrics", "m.json"}, "coordinator's to set"},
		{"member sets report", []string{"-join", "x:1", "-node-id", "1", "-report"}, "coordinator's to set"},
		{"member sets trace", []string{"-join", "x:1", "-node-id", "1", "-trace", "t.json"}, "coordinator's to set"},
		{"bad metrics-top", []string{"-listen", ":0", "-metrics-top", "0"}, "-metrics-top must be"},
		{"bad trace-limit", []string{"-listen", ":0", "-trace-limit", "-1"}, "-trace-limit must be"},
		{"trace-limit without a trace", []string{"-listen", ":0", "-trace-limit", "50"}, "-trace-limit needs -trace"},
		{"metrics-top without a consumer", []string{"-listen", ":0", "-metrics-top", "3"}, "-metrics-top needs -metrics or -report"},
		{"removed seed", []string{"-listen", ":0", "-seed", "7"}, "not defined"},
		{"coordinator with node id", []string{"-listen", ":0", "-node-id", "2"}, "always node 0"},
		{"zero nodes", []string{"-listen", ":0", "-nodes", "0"}, "0 nodes"},
		{"zero threads", []string{"-listen", ":0", "-threads", "0"}, "threads per node"},
		{"unknown app", []string{"-listen", ":0", "-app", "nosuch"}, "nosuch"},
		{"bad size", []string{"-listen", ":0", "-size", "huge"}, "huge"},
		{"bad page", []string{"-listen", ":0", "-page", "100"}, "page size 100"},
		{"page too large", []string{"-listen", ":0", "-page", "65536"}, "page size 65536: page larger than 32768 bytes"},
		{"unsupported threads", []string{"-listen", ":0", "-app", "ocean", "-threads", "3"}, "does not support 3 threads"},
		{"positional args", []string{"-listen", ":0", "extra"}, "unexpected arguments"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A short -timeout first, so a row whose arguments pass
			// validation by mistake fails in seconds rather than waiting
			// out the 2-minute default for members; rows that test
			// -timeout override it.
			args := append([]string{"-timeout", "2s"}, tc.args...)
			err := runErr(args...)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want it to contain %q", args, err, tc.want)
			}
		})
	}
}

// freePorts reserves n distinct listening ports at once.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestClusterEndToEnd drives a full 3-node cluster through the command
// entry point — coordinator and members as goroutines standing in for
// processes — with -oracle making the coordinator verify the TCP
// cluster's checksum against the deterministic simulator.
func TestClusterEndToEnd(t *testing.T) {
	const nodes = 3
	addr := freePorts(t, 1)[0]
	var wg sync.WaitGroup
	outs := make([]bytes.Buffer, nodes)
	errs := make([]error, nodes)

	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[0] = run([]string{"-listen", addr, "-nodes", fmt.Sprint(nodes),
			"-app", "sor", "-size", "test", "-threads", "2",
			"-timeout", "30s", "-oracle", "-quiet"}, &outs[0])
	}()
	for id := 1; id < nodes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = run([]string{"-join", addr, "-node-id", fmt.Sprint(id),
				"-nodes", fmt.Sprint(nodes), "-timeout", "30s", "-quiet"}, &outs[id])
		}(id)
	}
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v\noutput:\n%s", id, err, outs[id].String())
		}
	}
	if got := outs[0].String(); !strings.Contains(got, "checksum") ||
		!strings.Contains(got, "oracle: simulator checksum") {
		t.Fatalf("coordinator output missing checksum/oracle lines:\n%s", got)
	}
	// Every member must have been told the same global checksum.
	var sum string
	for _, line := range strings.Split(outs[0].String(), "\n") {
		if strings.Contains(line, "verified against sequential reference") {
			f := strings.Fields(line)
			for i, w := range f {
				if w == "checksum" && i+1 < len(f) {
					sum = f[i+1]
				}
			}
		}
	}
	if sum == "" {
		t.Fatalf("no checksum in coordinator output:\n%s", outs[0].String())
	}
	for id := 1; id < nodes; id++ {
		if !strings.Contains(outs[id].String(), sum) {
			t.Errorf("node %d output lacks global checksum %s:\n%s", id, sum, outs[id].String())
		}
	}
}

// TestMemberRejectedOnBadID checks that the coordinator turns a bad
// membership away with a reason and shuts the run down cleanly.
func TestMemberRejectedOnBadID(t *testing.T) {
	addr := freePorts(t, 1)[0]
	var wg sync.WaitGroup
	var coordErr, memberErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		var out bytes.Buffer
		coordErr = run([]string{"-listen", addr, "-nodes", "2",
			"-app", "sor", "-size", "test", "-timeout", "15s", "-quiet"}, &out)
	}()
	go func() {
		defer wg.Done()
		var out bytes.Buffer
		// Claims node id 5 in a 2-node cluster; only the coordinator can
		// see that, so the rejection must travel back over the wire.
		memberErr = run([]string{"-join", addr, "-node-id", "5", "-timeout", "15s", "-quiet"}, &out)
	}()
	wg.Wait()
	if coordErr == nil || !strings.Contains(coordErr.Error(), "node id 5") {
		t.Errorf("coordinator error = %v, want node id rejection", coordErr)
	}
	if memberErr == nil || !strings.Contains(memberErr.Error(), "node id 5") {
		t.Errorf("member error = %v, want node id rejection", memberErr)
	}
}

// scrapeUntilLive polls a debug server until /healthz answers ok and
// /metrics serves a report with observations, or the deadline passes.
func scrapeUntilLive(t *testing.T, addr string, deadline time.Time) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	for time.Now().Before(deadline) {
		ok := func() bool {
			resp, err := client.Get("http://" + addr + "/healthz")
			if err != nil {
				return false
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				return false
			}
			resp, err = client.Get("http://" + addr + "/metrics")
			if err != nil {
				return false
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				return false
			}
			rep, err := metrics.ReadReport(body)
			if err != nil {
				t.Fatalf("%s/metrics served %d bytes that are not a report: %v", addr, len(body), err)
			}
			if rep.Real == nil || rep.Real.Backend != "tcp" {
				t.Fatalf("%s/metrics report has no tcp Real section", addr)
			}
			var events int64
			rep.Snapshot.EachHistogram(func(_, _ string, h *metrics.Histogram) { events += h.Count })
			rep.Snapshot.EachCounter(func(_ string, c *metrics.Counter) { events += int64(*c) })
			return events > 0
		}()
		if ok {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("debug server %s never served a non-trivial report", addr)
}

// TestClusterObservability drives a 2-node cluster with debug servers
// on both nodes and the merged metrics report on the coordinator: both
// /metrics endpoints must serve non-trivial wall-clock reports while
// the processes linger, and the coordinator's written report must
// carry the merged snapshot with a tcp Real section.
func TestClusterObservability(t *testing.T) {
	ports := freePorts(t, 3)
	addr, dbg0, dbg1 := ports[0], ports[1], ports[2]
	metricsPath := filepath.Join(t.TempDir(), "cluster.json")
	var wg sync.WaitGroup
	var outs [2]bytes.Buffer
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = run([]string{"-listen", addr, "-nodes", "2",
			"-app", "waternsq", "-size", "test", "-threads", "2",
			"-timeout", "30s", "-quiet", "-debug-addr", dbg0, "-debug-linger", "5s",
			"-metrics", metricsPath, "-report"}, &outs[0])
	}()
	go func() {
		defer wg.Done()
		errs[1] = run([]string{"-join", addr, "-node-id", "1", "-nodes", "2",
			"-timeout", "30s", "-quiet", "-debug-addr", dbg1, "-debug-linger", "5s"}, &outs[1])
	}()

	deadline := time.Now().Add(25 * time.Second)
	scrapeUntilLive(t, dbg0, deadline)
	scrapeUntilLive(t, dbg1, deadline)
	wg.Wait()
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v\noutput:\n%s", id, err, outs[id].String())
		}
	}

	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.ReadReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Real == nil || rep.Real.Backend != "tcp" || rep.Real.Nodes != 2 {
		t.Errorf("merged report Real section = %+v, want tcp/2 nodes", rep.Real)
	}
	// The merge must carry both nodes' observations: waternsq acquires
	// locks from every node, so both per-node shards must be populated.
	if len(rep.Snapshot.Nodes) != 2 {
		t.Fatalf("merged snapshot has %d nodes, want 2", len(rep.Snapshot.Nodes))
	}
	for i := range rep.Snapshot.Nodes {
		nm := &rep.Snapshot.Nodes[i]
		if nm.Lock2Hop.Count+nm.LockLocalWait.Count == 0 {
			t.Errorf("merged snapshot node %d has no lock observations (member merge lost?)", i)
		}
	}
	if int64(rep.Snapshot.LockAcquires) == 0 || int64(rep.Snapshot.BarrierArrivals) == 0 {
		t.Errorf("merged sync counters empty: acquires=%d arrivals=%d",
			rep.Snapshot.LockAcquires, rep.Snapshot.BarrierArrivals)
	}
	if !strings.Contains(outs[0].String(), "real transport (tcp, 2 nodes, wall time)") {
		t.Errorf("coordinator -report output missing real transport section:\n%s", outs[0].String())
	}
}

// waitHealthy polls a debug server until /healthz answers ok.
func waitHealthy(t *testing.T, addr string, deadline time.Time) {
	t.Helper()
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		if resp, err := client.Get("http://" + addr + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("debug server %s never answered /healthz", addr)
}

// TestSignalAbortsCluster: SIGINT on the coordinator must fail both
// processes promptly with attributed errors instead of hanging until
// the timeout, and the failure must be loud about discarding results.
// The signal goes out once both nodes' /healthz answer: each node's
// debug server starts after its signal handler is installed. Both nodes
// share this process, so both catch the signal, but the member may fail
// from the coordinator's interrupt before its own handler runs; either
// is an attributed failure (a member process would see only the second).
func TestSignalAbortsCluster(t *testing.T) {
	ports := freePorts(t, 3)
	addr, dbg := ports[0], ports[1:]
	var wg sync.WaitGroup
	var errs [2]error
	wg.Add(2)
	go func() {
		defer wg.Done()
		var out bytes.Buffer
		// Node 2 never arrives: the coordinator blocks in the hello
		// phase and the member blocks awaiting its welcome, until the
		// interrupt severs their connections.
		errs[0] = run([]string{"-listen", addr, "-nodes", "3",
			"-app", "sor", "-size", "test",
			"-timeout", "60s", "-quiet", "-debug-addr", dbg[0]}, &out)
	}()
	go func() {
		defer wg.Done()
		var out bytes.Buffer
		errs[1] = run([]string{"-join", addr, "-node-id", "1", "-nodes", "3",
			"-timeout", "60s", "-quiet", "-debug-addr", dbg[1]}, &out)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for _, a := range dbg {
		waitHealthy(t, a, deadline)
	}
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cluster still blocked 20s after SIGINT; interrupt does not sever connections")
	}
	for id, err := range errs {
		switch {
		case err == nil:
			t.Errorf("node %d succeeded after SIGINT, want aborted error", id)
		case strings.Contains(err.Error(), "aborted by signal"):
		case id == 1 && strings.Contains(err.Error(), "coordinator failed: interrupted"):
			// The coordinator's farewell ended the member's wait for its
			// welcome before the member's own handler ran.
		default:
			t.Errorf("node %d error %q attributed to neither the signal nor the coordinator's interrupt", id, err)
		}
	}
}
