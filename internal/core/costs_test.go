package core

import (
	"testing"

	"cvm/internal/sim"
)

// TestCalibrationTwoHopLock reproduces the paper's simple 2-hop lock
// acquire: the manager holds the free token; acquire costs ~937µs.
func TestCalibrationTwoHopLock(t *testing.T) {
	s := testSystem(t, 2, 1)
	_, _ = s.Alloc("pad", 8192)
	var cost sim.Time
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 1 {
			start := w.Now()
			w.Lock(0) // manager (node 0) holds the token
			cost = w.Now() - start
			w.Unlock(0)
		}
	})
	within(t, "2-hop lock", cost, 937*us, 40*us)
}

// TestCalibrationThreeHopLock measures the 3-hop path: the token is at a
// third node, so the request is forwarded (paper: 1382µs).
func TestCalibrationThreeHopLock(t *testing.T) {
	s := testSystem(t, 3, 1)
	_, _ = s.Alloc("pad", 8192)
	var cost sim.Time
	runApp(t, s, func(w *Thread) {
		// Node 1 takes the token away from the manager (node 0), then
		// node 2's acquire needs three hops: 2 → 0 → 1 → 2.
		if w.NodeID() == 1 {
			w.Lock(0)
			w.Unlock(0)
		}
		w.Barrier(0)
		if w.NodeID() == 2 {
			start := w.Now()
			w.Lock(0)
			cost = w.Now() - start
			w.Unlock(0)
		}
	})
	within(t, "3-hop lock", cost, 1382*us, 60*us)
}

// TestCalibrationRemotePageFault measures a simple remote page fault:
// ~1100µs including mprotect (49µs) and signal handling (98µs).
func TestCalibrationRemotePageFault(t *testing.T) {
	s := testSystem(t, 2, 1)
	addr, _ := s.Alloc("page", 8192)
	var cost sim.Time
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 0 {
			// Dirty the full page so the diff is page-sized.
			for i := 0; i < 8192; i += 8 {
				w.WriteF64(addr+Addr(i), float64(i))
			}
		}
		w.Barrier(0)
		if w.NodeID() == 1 {
			start := w.Now()
			_ = w.ReadF64(addr)
			cost = w.Now() - start
		}
	})
	// The fetch carries a full-page diff; diff application (a page-length
	// cache-speed copy) is charged to the faulting thread on top of the
	// paper's 1100µs wire path.
	within(t, "remote page fault", cost, 1100*us, 150*us)
}

// TestCalibrationBarrier measures back-to-back 8-processor barriers.
// The paper's 2470µs minimal barrier assumes simultaneous arrivals (the
// netsim calibration test reproduces that case exactly); inside the
// system, consecutive barriers pipeline — the previous release staggers
// arrivals by the manager's per-message overhead — so the steady-state
// cost is somewhat lower. Assert the cost sits between the pipelined
// lower bound and the paper's simultaneous-arrival figure.
func TestCalibrationBarrier(t *testing.T) {
	s := testSystem(t, 8, 1)
	_, _ = s.Alloc("pad", 8192)
	var cost sim.Time
	runApp(t, s, func(w *Thread) {
		w.Barrier(0) // align all nodes
		start := w.Now()
		w.Barrier(1)
		if w.NodeID() == 7 {
			cost = w.Now() - start
		}
	})
	if cost < 1400*us || cost > 2600*us {
		t.Errorf("8-processor barrier = %v, want within [1.4ms, 2.6ms] "+
			"(paper §4.1: 2470µs minimal, less when pipelined)", cost)
	}
}

// TestCalibrationThreadSwitch verifies the 8µs thread switch cost.
func TestCalibrationThreadSwitch(t *testing.T) {
	s := testSystem(t, 1, 2)
	_, _ = s.Alloc("pad", 8192)
	var t0End, t1Start sim.Time
	runApp(t, s, func(w *Thread) {
		if w.LocalID() == 0 {
			w.Compute(10 * us)
			t0End = w.Now()
			w.Yield()
		} else {
			t1Start = w.Now()
		}
	})
	if got := t1Start - t0End; got != 8*us {
		t.Errorf("thread switch = %v, want 8µs", got)
	}
}
