package core

import (
	"testing"

	"cvm/internal/sim"
)

func TestSixteenNodes(t *testing.T) {
	// The Table 4 scale: 16 nodes, mixed sharing.
	s := testSystem(t, 16, 2)
	addr, _ := s.Alloc("data", 32*8192)
	var sum float64
	runApp(t, s, func(w *Thread) {
		if w.GlobalID() == 0 {
			for i := 0; i < 32*1024; i += 16 {
				w.WriteF64(addr+Addr(i*8), 1)
			}
		}
		w.Barrier(0)
		local := 0.0
		for i := w.GlobalID() * 1024; i < (w.GlobalID()+1)*1024; i += 16 {
			local += w.ReadF64(addr + Addr(i*8))
		}
		w.Lock(3)
		w.WriteF64(addr, w.ReadF64(addr)+local)
		w.Unlock(3)
		w.Barrier(1)
		if w.GlobalID() == 0 {
			sum = w.ReadF64(addr)
		}
		w.Barrier(2)
	})
	want := 2048.0 + 1 // 32 threads × 64 ones each, plus slot 0's own 1
	if sum != want {
		t.Errorf("sum = %v, want %v", sum, want)
	}
}

func TestBarrierIDReuse(t *testing.T) {
	// The same barrier id crossed repeatedly (episode state must reset).
	s := testSystem(t, 4, 2)
	_, _ = s.Alloc("pad", 8192)
	count := 0
	runApp(t, s, func(w *Thread) {
		for r := 0; r < 5; r++ {
			w.Barrier(7)
		}
		count++
	})
	if count != 8 {
		t.Errorf("finished threads = %d, want 8", count)
	}
}

func TestManyLocksAcrossManagers(t *testing.T) {
	// Locks hash across managers (id % nodes); exercise all managers.
	s := testSystem(t, 4, 1)
	addr, _ := s.Alloc("slots", 8192)
	runApp(t, s, func(w *Thread) {
		for l := 0; l < 12; l++ {
			w.Lock(l)
			w.WriteF64(addr+Addr(l*8), w.ReadF64(addr+Addr(l*8))+1)
			w.Unlock(l)
		}
		w.Barrier(0)
	})
	for _, n := range s.nodes {
		for id, l := range n.locks {
			if l.heldBy != nil {
				t.Errorf("node %d lock %d still held at exit", n.id, id)
			}
			if len(l.localQ) != 0 {
				t.Errorf("node %d lock %d has %d queued waiters at exit", n.id, id, len(l.localQ))
			}
		}
	}
}

func TestLockTokenCaching(t *testing.T) {
	// Repeated acquire/release by one node after the first remote fetch
	// must be free of messages (the token stays cached).
	s := testSystem(t, 2, 1)
	_, _ = s.Alloc("pad", 8192)
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 1 {
			w.Lock(0)
			w.Unlock(0)
			before := s.net.Stats().TotalMsgs()
			for i := 0; i < 5; i++ {
				w.Lock(0)
				w.Unlock(0)
			}
			if got := s.net.Stats().TotalMsgs(); got != before {
				t.Errorf("cached reacquires sent %d messages", got-before)
			}
		}
	})
	st := s.Stats()
	if st.Nodes[1].LocalLockAcquires < 5 {
		t.Errorf("local acquires = %d, want ≥ 5", st.Nodes[1].LocalLockAcquires)
	}
}

// TestAllocStaysBelowPrivateRegions: shared segments end at 2^41, where
// the threads' private regions begin, so no shared address aliases a
// private one and every address memsim sees is below its MaxAddr.
func TestAllocStaysBelowPrivateRegions(t *testing.T) {
	s := testSystem(t, 1, 1)
	if _, err := s.Alloc("a", 1<<40); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc("over", 1<<40+1); err == nil {
		t.Error("Alloc past 2^41 succeeded")
	}
	if base, err := s.Alloc("b", 1<<40); err != nil || base+1<<40 != sharedLimit {
		t.Errorf("Alloc up to 2^41 = %d, %v; want it to end at %d", base, err, sharedLimit)
	}
}

func TestTouchPrivate(t *testing.T) {
	s := testSystem(t, 1, 2)
	_, _ = s.Alloc("pad", 8192)
	runApp(t, s, func(w *Thread) {
		for i := 0; i < 100; i++ {
			w.TouchPrivate(i)
		}
		w.Yield()
	})
	ms := s.Stats().MemTotal
	if ms.Accesses < 200 {
		t.Errorf("accesses = %d, want ≥ 200 (private touches)", ms.Accesses)
	}
}

func TestInterleavedLockAndBarrier(t *testing.T) {
	// Lock-carried write notices and barrier-carried write notices must
	// compose: a value chained through locks then published at a barrier
	// is visible everywhere.
	s := testSystem(t, 4, 2)
	addr, _ := s.Alloc("x", 8192)
	bad := false
	runApp(t, s, func(w *Thread) {
		w.Lock(5)
		w.WriteF64(addr, w.ReadF64(addr)+1)
		w.Unlock(5)
		w.Barrier(0)
		if w.ReadF64(addr) != 8 {
			bad = true
		}
		w.Barrier(1)
	})
	if bad {
		t.Error("a thread saw a stale counter after the barrier")
	}
}

func TestWallTimeMonotonicWithWork(t *testing.T) {
	run := func(extra sim.Time) sim.Time {
		s := testSystem(t, 2, 1)
		_, _ = s.Alloc("pad", 8192)
		runApp(t, s, func(w *Thread) {
			w.Compute(extra)
			w.Barrier(0)
		})
		return s.Stats().Wall
	}
	if run(10*sim.Millisecond) <= run(1*sim.Millisecond) {
		t.Error("wall time did not grow with added work")
	}
}

func TestStatsNodesLength(t *testing.T) {
	s := testSystem(t, 3, 1)
	_, _ = s.Alloc("pad", 8192)
	runApp(t, s, func(w *Thread) { w.Barrier(0) })
	st := s.Stats()
	if len(st.Nodes) != 3 || len(st.Mem) != 3 {
		t.Errorf("stats slices = %d/%d nodes, want 3/3", len(st.Nodes), len(st.Mem))
	}
}

func TestSegmentsRecorded(t *testing.T) {
	s := testSystem(t, 1, 1)
	_, _ = s.Alloc("a", 100)
	_, _ = s.Alloc("b", 9000)
	segs := s.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if segs[0].Name != "a" || segs[1].Name != "b" {
		t.Errorf("segment names = %q, %q", segs[0].Name, segs[1].Name)
	}
	if segs[1].Base != 8192 {
		t.Errorf("segment b base = %d, want 8192", segs[1].Base)
	}
}

func TestStartTwiceFails(t *testing.T) {
	s := testSystem(t, 1, 1)
	if err := s.Start(func(w *Thread) {}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(func(w *Thread) {}); err == nil {
		t.Error("second Start succeeded, want error")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPageStateString(t *testing.T) {
	tests := []struct {
		s    PageState
		want string
	}{
		{PageInvalid, "invalid"},
		{PageReadOnly, "readonly"},
		{PageReadWrite, "readwrite"},
		{PageState(9), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("PageState(%d).String() = %q, want %q", tt.s, got, tt.want)
		}
	}
}
