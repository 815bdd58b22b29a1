package apps

import (
	"testing"

	"cvm"
	"cvm/internal/netsim"
)

// These tests pin the paper's qualitative results at the test input scale
// so regressions in the protocol or the applications that would change a
// paper-level conclusion fail loudly.

// TestShapeOceanFaultHiding: Ocean is the fault-bound application; adding
// a second thread per node must hide a large share of non-overlapped
// fault wait (paper: Figure 1's largest fault-component collapse).
func TestShapeOceanFaultHiding(t *testing.T) {
	// Ocean's fault volume needs the small grid; the test grid is too
	// tiny for overlap to matter.
	t1, err := Run("ocean", SizeSmall, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run("ocean", SizeSmall, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Total.FaultWait >= t1.Total.FaultWait*8/10 {
		t.Errorf("fault wait %v at T=2 vs %v at T=1: want ≥20%% hidden",
			t2.Total.FaultWait, t1.Total.FaultWait)
	}
	if t2.Wall >= t1.Wall {
		t.Errorf("wall %v at T=2 not below %v at T=1", t2.Wall, t1.Wall)
	}
}

// TestShapeWaterNsqLockHiding: Water-Nsq is the lock-bound application;
// multi-threading must reduce non-overlapped lock wait (paper: "most of
// Water-Nsq's [speedup] is from locks").
func TestShapeWaterNsqLockHiding(t *testing.T) {
	t1, err := Run("waternsq", SizeTest, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Run("waternsq", SizeTest, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if t4.Total.LockWait >= t1.Total.LockWait {
		t.Errorf("lock wait %v at T=4 not below %v at T=1",
			t4.Total.LockWait, t1.Total.LockWait)
	}
	if t4.Wall >= t1.Wall {
		t.Errorf("wall %v at T=4 not below %v at T=1", t4.Wall, t1.Wall)
	}
}

// TestShapeLockMessagesFlat: the paper's Table 2 conclusion — per-node
// aggregation keeps lock message counts essentially constant as the
// threading level rises.
func TestShapeLockMessagesFlat(t *testing.T) {
	t1, err := Run("waternsq", SizeTest, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Run("waternsq", SizeTest, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	m1 := t1.Net.Msgs[netsim.ClassLock]
	m4 := t4.Net.Msgs[netsim.ClassLock]
	// Aggregation means lock traffic must not grow with the threading
	// level (a decrease is fine: local hand-offs replace remote trips).
	if m4 > m1+m1/10 {
		t.Errorf("lock messages grew %d → %d with threading", m1, m4)
	}
}

// TestShapeSwitchesGrowWithThreads: Table 3's first column.
func TestShapeSwitchesGrowWithThreads(t *testing.T) {
	prev := int64(-1)
	for _, threads := range []int{1, 2, 4} {
		st, err := Run("waternsq", SizeTest, 4, threads)
		if err != nil {
			t.Fatal(err)
		}
		if st.Total.ThreadSwitches <= prev {
			t.Errorf("switches %d at T=%d not above previous %d",
				st.Total.ThreadSwitches, threads, prev)
		}
		prev = st.Total.ThreadSwitches
	}
}

// TestShapeSingleWriterLosesOnFalseSharing: the protocol-motivation
// result — under heavy false sharing the single-writer baseline moves far
// more data than multi-writer LRC. Ocean is the witness: its un-padded
// grids keep element-granular red-black accesses (stride-2 columns cannot
// use the span accessors), so neighbouring partitions ping-pong shared
// pages under single-writer. SOR no longer qualifies — its row-span
// sweeps fault at most once per page per row, which batches away the
// intra-phase interleaving the ping-pong needs.
func TestShapeSingleWriterLosesOnFalseSharing(t *testing.T) {
	run := func(protocol cvm.Protocol) (int64, cvm.Time) {
		cfg := cvm.DefaultConfig(8, 2)
		cfg.Protocol = protocol
		st, _, err := RunConfig("ocean", SizeTest, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st.Net.TotalBytes(), st.Wall
	}
	lrcBytes, lrcWall := run(cvm.ProtocolLRC)
	swBytes, swWall := run(cvm.ProtocolSW)
	if swBytes <= 2*lrcBytes {
		t.Errorf("single-writer bytes %d not ≫ multi-writer %d on Ocean", swBytes, lrcBytes)
	}
	if swWall <= 2*lrcWall {
		t.Errorf("single-writer wall %v not ≫ multi-writer %v on Ocean", swWall, lrcWall)
	}
}
