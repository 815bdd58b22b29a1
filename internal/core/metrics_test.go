package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cvm/internal/metrics"
	"cvm/internal/sim"
)

const us = sim.Microsecond

// within asserts v is within tol of want.
func within(t *testing.T, name string, v, want, tol sim.Time) {
	t.Helper()
	if v < want-tol || v > want+tol {
		t.Errorf("%s = %v, want %v ± %v (paper §4.1)", name, v, want, tol)
	}
}

// metricsSystem builds a default-calibration system with a metrics
// registry attached.
func metricsSystem(t *testing.T, nodes, threads int) (*System, *metrics.Registry) {
	t.Helper()
	cfg := DefaultConfig(nodes, threads)
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// histMean asserts a histogram observed exactly count samples with a
// mean within tol of want.
func histMean(t *testing.T, name string, h metrics.Histogram, count int64, want, tol sim.Time) {
	t.Helper()
	if h.Count != count {
		t.Fatalf("%s: count = %d, want %d", name, h.Count, count)
	}
	within(t, name+" mean", sim.Time(h.Mean()), want, tol)
}

// TestMetricsTwoHopLockCalibration cross-checks the Lock2Hop histogram
// against the paper's §4.1 2-hop acquire (937µs), on the workload of
// harness.MeasureCosts, and against the thread's own measurement.
func TestMetricsTwoHopLockCalibration(t *testing.T) {
	s, reg := metricsSystem(t, 2, 1)
	_, _ = s.Alloc("pad", 8192)
	var cost sim.Time
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 1 {
			start := w.Now()
			w.Lock(0)
			cost = w.Now() - start
			w.Unlock(0)
		}
	})
	snap := reg.Snapshot()
	h := snap.Nodes[1].Lock2Hop
	histMean(t, "Lock2Hop", h, 1, 937*us, 40*us)
	if got := sim.Time(h.Sum); got != cost {
		t.Errorf("Lock2Hop sum = %v, thread measured %v", got, cost)
	}
	if c := snap.Nodes[1].Lock3Hop.Count; c != 0 {
		t.Errorf("Lock3Hop observed %d acquires on the 2-hop path", c)
	}
	// The acquire wait is attributed to lock 0.
	if a := snap.LockWait[0]; a == nil || a.Count != 1 || sim.Time(a.WaitNs) != cost {
		t.Errorf("LockWait[0] = %+v, want 1 wait of %v", snap.LockWait[0], cost)
	}
}

// TestMetricsThreeHopLockCalibration cross-checks Lock3Hop against the
// paper's 1382µs forwarded acquire.
func TestMetricsThreeHopLockCalibration(t *testing.T) {
	s, reg := metricsSystem(t, 3, 1)
	_, _ = s.Alloc("pad", 8192)
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 1 {
			w.Lock(0)
			w.Unlock(0)
		}
		w.Barrier(0)
		if w.NodeID() == 2 {
			w.Lock(0)
			w.Unlock(0)
		}
	})
	snap := reg.Snapshot()
	// Node 1's initial acquire is classified 2-hop (manager-held token);
	// its latency is not asserted because it contends with the other
	// nodes' barrier arrivals at the manager. Node 2's acquire goes
	// through the forward path at the paper's 3-hop cost.
	if c := snap.Nodes[1].Lock2Hop.Count; c != 1 {
		t.Errorf("node 1 Lock2Hop count = %d, want 1", c)
	}
	histMean(t, "node2 Lock3Hop", snap.Nodes[2].Lock3Hop, 1, 1382*us, 60*us)
	if c := snap.Nodes[2].Lock2Hop.Count; c != 0 {
		t.Errorf("node 2 recorded %d 2-hop acquires on the forwarded path", c)
	}
}

// TestMetricsRemoteFaultCalibration cross-checks FaultService against
// the paper's ~1100µs remote page fault.
func TestMetricsRemoteFaultCalibration(t *testing.T) {
	s, reg := metricsSystem(t, 2, 1)
	addr, _ := s.Alloc("page", 8192)
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 0 {
			for i := 0; i < 8192; i += 8 {
				w.WriteF64(addr+Addr(i), float64(i))
			}
		}
		w.Barrier(0)
		if w.NodeID() == 1 {
			_ = w.ReadF64(addr)
		}
	})
	snap := reg.Snapshot()
	histMean(t, "FaultService", snap.Nodes[1].FaultService, 1, 1100*us, 150*us)
	if snap.Nodes[1].FaultThreadWait.Count != 1 {
		t.Errorf("FaultThreadWait count = %d, want 1", snap.Nodes[1].FaultThreadWait.Count)
	}
	// The fault wait is attributed to the faulted page.
	pg := int32(addr / Addr(s.cfg.PageSize))
	if a := snap.PageWait[pg]; a == nil || a.Count != 1 {
		t.Errorf("PageWait[%d] = %+v, want one wait", pg, snap.PageWait[pg])
	}
}

// metricsWorkload is a mixed fault/lock/barrier workload exercising
// every metric family, with a MarkSteadyState reset in the middle so
// the test covers the registry's epoch re-anchoring. The reset is node
// 0's, right after the barrier, while the other nodes wait for the
// release (MarkSteadyState's precondition).
func metricsWorkload(addr Addr) func(*Thread) {
	return func(w *Thread) {
		n := 1 + w.GlobalID()%3
		for r := 0; r < 2; r++ {
			for i := 0; i < 64*n; i++ {
				off := Addr((w.GlobalID()*64 + i) % 512 * 8)
				w.WriteF64(addr+off, float64(i))
				_ = w.ReadF64(addr + (off+4096)%8192)
			}
			w.Lock(w.GlobalID() % 2)
			w.Compute(5 * us)
			w.Unlock(w.GlobalID() % 2)
			w.Barrier(r)
			if r == 0 && w.GlobalID() == 0 {
				w.MarkSteadyState()
			}
		}
	}
}

// TestMetricsWallReconciliation asserts the tentpole's core invariant:
// per node, UserBurst.Sum + FaultIdle.Sum + LockIdle.Sum +
// BarrierIdle.Sum equals NodeStats.Wall() exactly — the histograms are
// observed in the same scheduler hooks that accrue the stats, across a
// MarkSteadyState reset.
func TestMetricsWallReconciliation(t *testing.T) {
	s, reg := metricsSystem(t, 4, 2)
	addr, _ := s.Alloc("data", 8192)
	runApp(t, s, metricsWorkload(addr))
	st := s.Stats()
	snap := reg.Snapshot()

	if len(snap.Nodes) != 4 {
		t.Fatalf("snapshot has %d nodes, want 4", len(snap.Nodes))
	}
	for i, n := range snap.Nodes {
		got := n.UserBurst.Sum + n.FaultIdle.Sum + n.LockIdle.Sum + n.BarrierIdle.Sum
		want := int64(st.Nodes[i].Wall())
		if got != want {
			t.Errorf("node %d: histogram wall %d != NodeStats.Wall %d (Δ%d)",
				i, got, want, got-want)
		}
		if n.UserBurst.Sum != int64(st.Nodes[i].UserTime) {
			t.Errorf("node %d: UserBurst.Sum %d != UserTime %d", i, n.UserBurst.Sum, int64(st.Nodes[i].UserTime))
		}
		if n.FaultIdle.Sum != int64(st.Nodes[i].FaultWait) {
			t.Errorf("node %d: FaultIdle.Sum %d != FaultWait %d", i, n.FaultIdle.Sum, int64(st.Nodes[i].FaultWait))
		}
		if n.LockIdle.Sum != int64(st.Nodes[i].LockWait) {
			t.Errorf("node %d: LockIdle.Sum %d != LockWait %d", i, n.LockIdle.Sum, int64(st.Nodes[i].LockWait))
		}
		if n.BarrierIdle.Sum != int64(st.Nodes[i].BarrierWait) {
			t.Errorf("node %d: BarrierIdle.Sum %d != BarrierWait %d", i, n.BarrierIdle.Sum, int64(st.Nodes[i].BarrierWait))
		}
		// The utilization timeline holds the same spans, except that
		// remainders straddling the steady-state epoch clamp to it, so
		// each component is bounded by its histogram sum and the
		// timeline is never empty.
		var tl metrics.TimelineBin
		for _, b := range snap.Timeline[i] {
			tl.UserNs += b.UserNs
			tl.FaultNs += b.FaultNs
			tl.LockNs += b.LockNs
			tl.BarrierNs += b.BarrierNs
		}
		if tl == (metrics.TimelineBin{}) {
			t.Errorf("node %d: empty utilization timeline", i)
		}
		if tl.UserNs > n.UserBurst.Sum || tl.FaultNs > n.FaultIdle.Sum ||
			tl.LockNs > n.LockIdle.Sum || tl.BarrierNs > n.BarrierIdle.Sum {
			t.Errorf("node %d: timeline %+v exceeds histogram sums", i, tl)
		}
	}
	if snap.Nodes[0].DiffBytes.Count == 0 {
		t.Error("no diffs observed by the workload")
	}
}

// TestMetricsNeutrality asserts the A/B property: the run's statistics
// are bit-identical with metrics enabled and disabled (observation
// never advances virtual time or perturbs scheduling).
func TestMetricsNeutrality(t *testing.T) {
	run := func(withMetrics bool) (RunStats, *metrics.Snapshot) {
		cfg := DefaultConfig(4, 2)
		var reg *metrics.Registry
		if withMetrics {
			reg = metrics.NewRegistry()
			cfg.Metrics = reg
		}
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := s.Alloc("data", 8192)
		runApp(t, s, metricsWorkload(addr))
		if reg == nil {
			return s.Stats(), nil
		}
		return s.Stats(), reg.Snapshot()
	}
	on, _ := run(true)
	off, _ := run(false)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("stats differ with metrics on vs off:\n on: %+v\noff: %+v", on.Total, off.Total)
	}
}

// TestMetricsReportDeterministic asserts the serialized report is
// byte-identical across repeated runs of the same configuration.
func TestMetricsReportDeterministic(t *testing.T) {
	report := func() []byte {
		s, reg := metricsSystem(t, 4, 2)
		addr, _ := s.Alloc("data", 8192)
		runApp(t, s, metricsWorkload(addr))
		data, err := json.MarshalIndent(reg.Snapshot(), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := report(), report()
	if !bytes.Equal(a, b) {
		t.Error("metrics snapshot JSON differs between identical runs")
	}
}
