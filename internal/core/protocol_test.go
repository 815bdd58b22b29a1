package core

import (
	"testing"
	"testing/quick"

	"cvm/internal/sim"
)

// TestLockChainedAccumulation is the regression test for the causal diff
// ordering bug: several nodes take turns (under one lock) incrementing
// counters that share a page, while other lock traffic causes partial
// fetches; a final reader must see every contribution. This pattern —
// Water-Nsq's force accumulation — once lost updates to (a) lazily-folded
// diffs escaping the write-notice horizon and (b) a non-topological diff
// application order.
func TestLockChainedAccumulation(t *testing.T) {
	const (
		nodes    = 8
		threads  = 2
		counters = 16
		rounds   = 3
	)
	s := testSystem(t, nodes, threads)
	addr, _ := s.Alloc("counters", 8192)
	at := func(i int) Addr { return addr + Addr(i*8) }

	var finals []float64
	runApp(t, s, func(w *Thread) {
		gid := w.GlobalID() // 0..15
		w.Barrier(0)
		for r := 0; r < rounds; r++ {
			// Every thread adds a distinct amount to every counter,
			// serialized by per-counter locks. Threads traverse in
			// different orders so lock chains interleave heavily.
			for k := 0; k < counters; k++ {
				c := k
				if gid%2 == 1 {
					c = counters - 1 - k
				}
				w.Lock(10 + c)
				w.WriteF64(at(c), w.ReadF64(at(c))+float64(gid+1))
				w.Unlock(10 + c)
			}
			w.Barrier(100 + r)
		}
		if gid == 0 {
			for c := 0; c < counters; c++ {
				finals = append(finals, w.ReadF64(at(c)))
			}
		}
		w.Barrier(9999)
	})

	total := threads * nodes
	want := float64(rounds * total * (total + 1) / 2) // Σ(gid+1) per round
	for c, got := range finals {
		if got != want {
			t.Errorf("counter %d = %v, want %v (lost update)", c, got, want)
		}
	}
	if len(finals) != counters {
		t.Fatalf("read %d finals, want %d", len(finals), counters)
	}
}

// TestLockFastPathHoldsDuringCost: a thread taking a cached token must
// hold it while its bookkeeping cost is charged. Node 1 caches lock 0's
// token, then re-acquires it with a 2 ms local cost; node 0's request
// lands in that window. Granting the token away there (the lock was
// marked held only after the cost) gave two nodes the lock at once, and
// node 0's increment did not see node 1's.
func TestLockFastPathHoldsDuringCost(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := DefaultConfig(2, 1)
		cfg.LockLocalCost, cfg.EngineWorkers = 2*sim.Millisecond, workers
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := s.Alloc("counter", 8192)
		var final float64
		runApp(t, s, func(w *Thread) {
			inc := func() {
				w.Lock(0)
				w.WriteF64(addr, w.ReadF64(addr)+1)
				w.Unlock(0)
			}
			if w.GlobalID() == 1 {
				inc() // the token moves to node 1 and stays there
			}
			w.Barrier(0)
			if w.GlobalID() == 0 {
				w.Compute(sim.Millisecond) // request while node 1 is in its cost
			}
			inc()
			w.Barrier(1)
			if w.GlobalID() == 0 {
				final = w.ReadF64(addr)
			}
		})
		if final != 3 {
			t.Errorf("engine workers %d: counter = %v, want 3", workers, final)
		}
	}
}

// TestSortDiffsRespectsCausality: the output order must be a linear
// extension of the happens-before partial order.
func TestSortDiffsRespectsCausality(t *testing.T) {
	f := func(seed uint16) bool {
		// Build a random but causally consistent history: each of 2 to
		// 65 nodes creates intervals; each new interval's VT covers the
		// node's previous interval and sometimes merges another node's
		// latest.
		r := testRand(uint64(seed) + 1)
		nNodes := 2 + int(seed%64)
		latest := make([]VClock, nNodes)
		for i := range latest {
			latest[i] = NewVClock(nNodes)
		}
		var ds []*Diff
		for step := 0; step < 24+2*nNodes; step++ {
			n := int(r.next() * float64(nNodes))
			vt := latest[n].Clone()
			if r.next() < 0.5 {
				vt.Merge(latest[int(r.next()*float64(nNodes))])
			}
			vt[n]++
			latest[n] = vt
			ds = append(ds, mkDiff(n, vt[n], vt.Clone()...))
		}
		sortDiffs(ds)
		for i := range ds {
			for j := i + 1; j < len(ds); j++ {
				if ds[j].VT.Before(ds[i].VT) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSortDiffsStableForSameNode: diffs of one node must stay in interval
// order.
func TestSortDiffsStableForSameNode(t *testing.T) {
	ds := []*Diff{
		mkDiff(1, 3, 0, 3),
		mkDiff(1, 1, 0, 1),
		mkDiff(1, 2, 0, 2),
	}
	sortDiffs(ds)
	for i, want := range []int32{1, 2, 3} {
		if ds[i].Idx != want {
			t.Fatalf("position %d has idx %d, want %d", i, ds[i].Idx, want)
		}
	}
}

// TestReadModifyWriteUnderLoad stresses many threads hammering one page
// with interleaved barrier traffic — a smoke test for torn accesses.
func TestReadModifyWriteUnderLoad(t *testing.T) {
	s := testSystem(t, 4, 4)
	addr, _ := s.Alloc("x", 8192)
	runApp(t, s, func(w *Thread) {
		for r := 0; r < 4; r++ {
			w.Lock(1)
			w.WriteI64(addr, w.ReadI64(addr)+1)
			w.Unlock(1)
			// Unsynchronized write to a private slot of the same page
			// (false sharing), plus barrier churn.
			w.WriteI64(addr+Addr(8+8*w.GlobalID()), int64(r))
			w.Barrier(r)
		}
	})
	// Final value readable from the last holder's copy.
	var got int64
	for _, n := range s.nodes {
		if p := n.peek(0); p != nil && p.data != nil {
			if v := int64(le64(p.data)); v > got {
				got = v
			}
		}
	}
	if want := int64(4 * 4 * 4); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
}

// TestIdleAttributionSumsToWall verifies the Figure 1 invariant: per-node
// user + fault + lock + barrier time ≈ wall time.
func TestIdleAttributionSumsToWall(t *testing.T) {
	st, err := runSampleWorkload(t)
	if err != nil {
		t.Fatal(err)
	}
	for i, ns := range st.Nodes {
		wall := st.Wall
		sum := ns.Wall()
		// Allow skew from barrier-release stagger and final drain.
		diff := wall - sum
		if diff < 0 {
			diff = -diff
		}
		if diff > wall/5 {
			t.Errorf("node %d: breakdown %v vs wall %v (>20%% apart)", i, sum, wall)
		}
	}
}

func runSampleWorkload(t *testing.T) (RunStats, error) {
	t.Helper()
	s := testSystem(t, 4, 2)
	addr, _ := s.Alloc("grid", 16*8192)
	if err := s.Start(func(w *Thread) {
		if w.GlobalID() == 0 {
			for i := 0; i < 16*1024; i += 8 {
				w.WriteF64(addr+Addr(i*8), 1)
			}
		}
		w.Barrier(0)
		if w.GlobalID() == 0 {
			w.MarkSteadyState()
		}
		w.Barrier(1)
		for r := 0; r < 3; r++ {
			sum := 0.0
			for i := 0; i < 16*1024; i += 64 {
				sum += w.ReadF64(addr + Addr(i*8))
			}
			w.Lock(1)
			w.WriteF64(addr, w.ReadF64(addr)+sum)
			w.Unlock(1)
			w.Barrier(10 + r)
		}
	}); err != nil {
		return RunStats{}, err
	}
	if err := s.Run(); err != nil {
		return RunStats{}, err
	}
	return s.Stats(), nil
}

// testRand is a small deterministic generator for property tests.
type testRand uint64

func (r *testRand) next() float64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return float64((*r)>>11) / float64(1<<53)
}

// TestRaceDetector: the paper observes that overlapping concurrent diffs
// indicate a data race. Config.DetectRaces turns that observation into a
// checker: a racy program (two nodes writing the same word without
// synchronization) is flagged; a properly synchronized one is not.
func TestRaceDetector(t *testing.T) {
	run := func(racy bool) int64 {
		// Nodes 0 and 1 write concurrently; node 2 is the observer whose
		// fault collects both concurrent diffs.
		cfg := DefaultConfig(3, 1)
		cfg.DetectRaces = true
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := s.Alloc("x", 8192)
		runApp(t, s, func(w *Thread) {
			if w.NodeID() < 2 {
				off := Addr(8 * w.NodeID())
				if racy {
					off = 0 // both writers hit the same word, unsynchronized
				}
				w.WriteF64(addr+off, float64(w.NodeID()+1))
			}
			w.Barrier(0)
			if w.NodeID() == 2 {
				_ = w.ReadF64(addr)
			}
			w.Barrier(1)
		})
		return s.Stats().Total.RacesDetected
	}
	if got := run(false); got != 0 {
		t.Errorf("synchronized program flagged %d races, want 0", got)
	}
	if got := run(true); got == 0 {
		t.Error("racy program flagged 0 races, want > 0")
	}
}
