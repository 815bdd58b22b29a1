package rt_test

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/metrics"
	"cvm/internal/rt"
	"cvm/internal/trace"
)

// runMetered runs a lock/barrier workload with metrics and tracing
// attached and returns the snapshot plus the recorder.
func runMetered(t *testing.T, nodes, threads, iters int) (*metrics.Snapshot, *trace.Recorder, *rt.Cluster) {
	t.Helper()
	cfg := rt.DefaultConfig(nodes, threads)
	met := rt.NewMetrics()
	rec := trace.NewRecorder(nodes, threads, 0)
	cfg.Metrics = met
	cfg.Tracer = rec
	c, err := rt.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctr := cvm.MustAllocF64(c, "ctr", 1)
	if _, err := c.RunLoopback(func(w cvm.Worker) {
		for i := 0; i < iters; i++ {
			w.Lock(3)
			ctr.Add(w, 0, 1)
			w.Unlock(3)
		}
		w.Barrier(0)
		w.LocalBarrier(1)
		w.ReduceF64(2, 1, 0)
	}); err != nil {
		t.Fatal(err)
	}
	return met.Snapshot(), rec, c
}

// TestMetricsCountsSyncOps checks the backend-invariant counters: each
// is program-determined — exactly one increment per application call —
// which is the property the sim-vs-real equivalence gate relies on.
func TestMetricsCountsSyncOps(t *testing.T) {
	const nodes, threads, iters = 4, 2, 5
	snap, _, _ := runMetered(t, nodes, threads, iters)
	nt := int64(nodes * threads)
	for _, tc := range []struct {
		name string
		got  metrics.Counter
		want int64
	}{
		{"lock_acquires", snap.LockAcquires, nt * iters},
		{"lock_releases", snap.LockReleases, nt * iters},
		{"barrier_arrivals", snap.BarrierArrivals, nt},
		{"local_barrier_arrivals", snap.LocalBarrierArrivals, nt},
		{"reductions", snap.Reductions, nt},
	} {
		if int64(tc.got) != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestMetricsObservesWaits checks that the wall-clock histograms and
// attribution maps populate: remote lock waits classify as 2-hop (the
// centralized managers never need a third hop), barrier stalls and
// fault service times are nonzero, and the hot-lock table attributes
// the contended lock.
func TestMetricsObservesWaits(t *testing.T) {
	const nodes, threads, iters = 4, 2, 5
	snap, rec, _ := runMetered(t, nodes, threads, iters)

	var hist metrics.Histogram
	for i := range snap.Nodes {
		nm := &snap.Nodes[i]
		hist.Count += nm.Lock2Hop.Count + nm.LockLocalWait.Count
	}
	if got, want := hist.Count, int64(nodes*threads*iters); got != want {
		t.Errorf("lock wait observations = %d, want %d", got, want)
	}
	var threeHop int64
	for i := range snap.Nodes {
		threeHop += snap.Nodes[i].Lock3Hop.Count
	}
	if threeHop != 0 {
		t.Errorf("Lock3Hop = %d, want 0 (centralized managers are 2-hop by construction)", threeHop)
	}
	var stalls, faults int64
	for i := range snap.Nodes {
		stalls += snap.Nodes[i].BarrierStall.Count
		faults += snap.Nodes[i].FaultService.Count
	}
	if stalls != int64(nodes*threads) {
		t.Errorf("barrier stalls = %d, want %d", stalls, nodes*threads)
	}
	if faults == 0 {
		t.Error("no fault service observations despite remote page traffic")
	}
	if a := snap.LockWait[3]; a == nil || a.Count == 0 {
		t.Errorf("lock 3 missing from the hot-lock attribution: %+v", snap.LockWait)
	}
	if len(snap.PageWait) == 0 {
		t.Error("no page wait attribution despite remote faults")
	}
	if len(snap.MsgClasses) == 0 {
		t.Error("snapshot carries no message class names")
	}
	if rec.Len() == 0 {
		t.Error("tracer attached but no events recorded")
	}
}

// TestStatusAfterRun checks the live-introspection surface: after the
// run every thread reports done, the epoch advanced with the acquires,
// and the per-peer traffic is populated.
func TestStatusAfterRun(t *testing.T) {
	const nodes, threads = 4, 2
	_, _, c := runMetered(t, nodes, threads, 3)
	sts := c.Status()
	if len(sts) != nodes {
		t.Fatalf("Status() returned %d nodes, want %d", len(sts), nodes)
	}
	for _, st := range sts {
		if len(st.Threads) != threads {
			t.Errorf("node %d: %d thread states, want %d", st.Node, len(st.Threads), threads)
		}
		for i, s := range st.Threads {
			if s != "done" {
				t.Errorf("node %d thread %d state %q after run, want done", st.Node, i, s)
			}
		}
		if st.Epoch == 0 {
			t.Errorf("node %d epoch 0 after a run with acquires", st.Node)
		}
		if st.Failure != "" {
			t.Errorf("node %d reports failure %q after clean run", st.Node, st.Failure)
		}
		var traffic int64
		for _, p := range st.Peers {
			traffic += p.Msgs
		}
		if traffic == 0 {
			t.Errorf("node %d reports zero peer traffic", st.Node)
		}
	}
}

// TestMetricsReconfigureMismatchPanics pins the shape guard: one
// collector cannot silently aggregate differently-shaped clusters.
func TestMetricsReconfigureMismatchPanics(t *testing.T) {
	met := rt.NewMetrics()
	run := func(nodes int) error {
		cfg := rt.DefaultConfig(nodes, 1)
		cfg.Metrics = met
		c, err := rt.NewCluster(cfg)
		if err != nil {
			return err
		}
		_, err = c.RunLoopback(func(w cvm.Worker) { w.Barrier(0) })
		return err
	}
	if err := run(2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("reattaching a 2-node Metrics to a 4-node cluster did not panic")
		}
	}()
	run(4)
}

// keysOf returns a JSON object's keys, sorted and comma-joined.
func keysOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not a JSON object: %v", err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// TestMetricsReportParity holds the registry-backed collector to the
// report the hand-assembled one wrote: for sor and waternsq at 4x2 on
// loopback the JSON carries the same keys (pinned below), the
// histograms and attribution tables the runtime feeds are populated and
// reconcile with each other and with the sync counters, and Snapshot is
// safe to call while the run observes (the debug server does; the race
// detector checks it here). Counter equality with the simulator is
// TestGuardTransportEquivalence's.
func TestMetricsReportParity(t *testing.T) {
	const (
		nodes, threads = 4, 2
		snapshotKeys   = "barrier_arrivals,dup_suppressed,epoch_ns,interval_ns,local_barrier_arrivals," +
			"lock_acquires,lock_releases,lock_wait,msg_classes,net,net_dropped,net_duplicated,nodes," +
			"page_wait,reductions,retransmits,timeline,timeline_clipped_ns"
		nodeKeys = "barrier_idle,barrier_stall,diff_bytes,fault_idle,fault_service,fault_thread_wait," +
			"local_barrier_stall,lock_2hop,lock_3hop,lock_idle,lock_local_wait,run_queue,user_burst"
	)
	for _, name := range []string{"sor", "waternsq"} {
		t.Run(name, func(t *testing.T) {
			app, err := apps.New(name, apps.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rt.DefaultConfig(nodes, threads)
			met := rt.NewMetrics()
			cfg.Metrics = met
			cl, err := rt.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Setup(cl); err != nil {
				t.Fatal(err)
			}
			stop, scraped := make(chan struct{}), make(chan int)
			go func() {
				n := 0
				for {
					select {
					case <-stop:
						scraped <- n
						return
					default:
						met.Snapshot()
						n++
					}
				}
			}()
			res, err := cl.RunLoopback(app.Main)
			close(stop)
			if n := <-scraped; n == 0 {
				t.Error("no snapshot was taken during the run")
			}
			if err != nil {
				t.Fatal(err)
			}

			snap := met.Snapshot()
			rep := metrics.NewReport(metrics.Meta{App: name}, snap, 10)
			rep.Real = rt.RealStats("loopback", nodes, res.Elapsed, res.Net)
			var buf bytes.Buffer
			if err := rep.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Snapshot json.RawMessage `json:"snapshot"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			if got := keysOf(t, doc.Snapshot); got != snapshotKeys {
				t.Errorf("snapshot keys\n got %s\nwant %s", got, snapshotKeys)
			}
			var shape struct {
				Nodes    []json.RawMessage `json:"nodes"`
				Timeline []json.RawMessage `json:"timeline"`
				Net      struct {
					Latency []json.RawMessage `json:"latency"`
				} `json:"net"`
			}
			if err := json.Unmarshal(doc.Snapshot, &shape); err != nil {
				t.Fatal(err)
			}
			if len(shape.Nodes) != nodes || len(shape.Timeline) != nodes || len(shape.Net.Latency) != len(snap.MsgClasses) {
				t.Errorf("%d node entries, %d timelines, %d latency classes; want %d, %d, %d",
					len(shape.Nodes), len(shape.Timeline), len(shape.Net.Latency), nodes, nodes, len(snap.MsgClasses))
			}
			for i, raw := range shape.Nodes {
				if got := keysOf(t, raw); got != nodeKeys {
					t.Errorf("nodes[%d] keys\n got %s\nwant %s", i, got, nodeKeys)
				}
			}

			var sum metrics.NodeMetrics
			for i := range snap.Nodes {
				nm := &snap.Nodes[i]
				sum.FaultService.Count += nm.FaultService.Count
				sum.FaultThreadWait.Count += nm.FaultThreadWait.Count
				sum.BarrierStall.Count += nm.BarrierStall.Count
				sum.DiffBytes.Count += nm.DiffBytes.Count
				sum.Lock2Hop.Count += nm.Lock2Hop.Count + nm.LockLocalWait.Count
				sum.Lock3Hop.Count += nm.Lock3Hop.Count
			}
			attributed := func(m map[int32]*metrics.WaitAttr) (n int64) {
				for _, a := range m {
					n += a.Count
				}
				return n
			}
			if sum.FaultService.Count == 0 || sum.DiffBytes.Count == 0 {
				t.Errorf("fault_service %d, diff_bytes %d observations; want both > 0",
					sum.FaultService.Count, sum.DiffBytes.Count)
			}
			if pw := attributed(snap.PageWait); pw != sum.FaultService.Count || pw != sum.FaultThreadWait.Count {
				t.Errorf("page_wait attributes %d waits; fault_service %d, fault_thread_wait %d",
					pw, sum.FaultService.Count, sum.FaultThreadWait.Count)
			}
			if sum.BarrierStall.Count == 0 || sum.BarrierStall.Count != int64(snap.BarrierArrivals) {
				t.Errorf("barrier_stall %d observations, barrier_arrivals %d", sum.BarrierStall.Count, snap.BarrierArrivals)
			}
			if lw := attributed(snap.LockWait); lw != int64(snap.LockAcquires) || sum.Lock2Hop.Count != lw || sum.Lock3Hop.Count != 0 {
				t.Errorf("lock_wait attributes %d waits; lock_acquires %d, 2-hop+local %d, 3-hop %d",
					lw, snap.LockAcquires, sum.Lock2Hop.Count, sum.Lock3Hop.Count)
			}
			if snap.LockAcquires != snap.LockReleases || (name == "waternsq" && snap.LockAcquires == 0) {
				t.Errorf("lock_acquires %d, lock_releases %d", snap.LockAcquires, snap.LockReleases)
			}
		})
	}
}

// TestStatusExplainsBlockedThread parks node 1's thread on a lock node 0
// holds and reads /status's source mid-run: the entry must say what the
// thread waits for (a lock), which (4), where the reply comes from (the
// lock's manager, node 0) and for how long — and the age must grow.
func TestStatusExplainsBlockedThread(t *testing.T) {
	c, err := rt.NewCluster(rt.DefaultConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	holding, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.RunLoopback(func(w cvm.Worker) {
			if w.NodeID() == 0 {
				w.Lock(4)
				close(holding)
				<-release
				w.Unlock(4)
			} else {
				<-holding
				w.Lock(4)
				w.Unlock(4)
			}
			w.Barrier(0)
		})
		done <- err
	}()
	// age polls until node 1's thread is in the lock wait, then returns
	// how long Status says it has been there.
	age := func() time.Duration {
		const prefix = "lock-wait lock 4 @n0 "
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if sts := c.Status(); len(sts) == 2 && strings.HasPrefix(sts[1].Threads[0], prefix) {
				d, err := time.ParseDuration(strings.TrimPrefix(sts[1].Threads[0], prefix))
				if err != nil {
					t.Fatalf("status %q: %v", sts[1].Threads[0], err)
				}
				return d
			}
		}
		t.Fatalf("node 1 never reported the lock wait; status %+v", c.Status())
		return 0
	}
	first := age()
	time.Sleep(5 * time.Millisecond)
	if second := age(); second < first+5*time.Millisecond {
		t.Errorf("wait aged %v -> %v across a 5ms sleep", first, second)
	}
	if got := c.Status()[0].Threads[0]; got != "running" {
		t.Errorf("the holder reports %q, want running", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
