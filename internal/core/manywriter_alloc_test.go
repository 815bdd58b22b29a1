//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// mallocs reads the process's allocation count; the collector is off
// while the caps are measured (see TestSpanAllocCaps for why).
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// faultAllocs has nodes 1..writers each write their own word of every
// one of pages pages, and node 0 then read the pages one remote fault at
// a time, twice; it returns what each fault of the second round
// allocated. The first round makes the reader's fault legs and grows its
// sorter and the engine's event queue. Node 0 reads every page before
// the first round, so no fault materializes one, and in the second
// round the other nodes have finished before it faults, so nothing but
// the faults' own legs runs.
func faultAllocs(t *testing.T, writers, pages int) []uint64 {
	s := testSystem(t, 64, 1)
	base, err := s.Alloc("pages", pages*s.cfg.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	page := func(p int) Addr { return base + Addr(p*s.cfg.PageSize) }
	var got []uint64
	runApp(t, s, func(th *Thread) {
		id := th.NodeID()
		if id == 0 {
			for p := range pages {
				th.ReadI64(page(p))
			}
		}
		for round := range 2 {
			th.Barrier(2 * round)
			if id >= 1 && id <= writers {
				for p := range pages {
					th.WriteI64(page(p)+Addr(8*id), int64(round+id))
				}
			}
			th.Barrier(2*round + 1)
			if id != 0 && round == 1 {
				return
			}
			for p := range pages {
				before := mallocs()
				if v := th.ReadI64(page(p) + Addr(8*writers)); id == 0 && v != int64(round+writers) {
					t.Errorf("round %d page %d word %d reads %d", round, p, writers, v)
				}
				if id == 0 && round == 1 {
					got = append(got, mallocs()-before)
				}
			}
		}
	})
	if n := s.nodes[0].stats.RemoteFaults; n != int64(2*pages) {
		t.Fatalf("%d writers: %d remote faults, want %d", writers, n, 2*pages)
	}
	return got
}

// TestManyWriterAllocCaps pins the many-writer path's allocations: a
// remote fault allocates the same few objects however many writers it
// fetches diffs from (its legs are reused, its slices sized once), and a
// barrier release builds one payload for every node, not one per node.
func TestManyWriterAllocCaps(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	for _, writers := range []int{16, 63} {
		got := faultAllocs(t, writers, 8)
		t.Logf("%d writers: allocations per fault %v", writers, got)
		for p, n := range got {
			if n != faultAllocCap {
				t.Errorf("%d writers, fault %d: %d allocations, want %d", writers, p, n, faultAllocCap)
			}
		}
	}

	for _, nodes := range []int{16, 63} {
		s := testSystem(t, nodes, 1)
		mgr := s.nodes[0]
		mgr.ensureIntervals()
		release := func(id int) uint64 {
			key := meetKey{meetBarrier, id}
			arrivals := make([]arrival, nodes)
			for i := range arrivals {
				arrivals[i] = arrival{from: i, vt: NewVClock(nodes)}
			}
			before := mallocs()
			for _, a := range arrivals {
				s.gather(key, ReduceSum, a)
			}
			n := mallocs() - before
			if err := s.eng.Run(); err != nil { // deliver the releases
				t.Fatal(err)
			}
			return n
		}
		release(0) // first use: the episode map, each node's release handler
		if n := release(1); n > releaseAllocCap {
			t.Errorf("%d nodes: a barrier release allocates %d objects, cap %d", nodes, n, releaseAllocCap)
		} else {
			t.Logf("%d nodes: a barrier release allocates %d objects", nodes, n)
		}
	}
}

const (
	// A fault: its ranges, its state, its diff slice and its waiter list.
	faultAllocCap = 4
	// A release: the episode and its arrival slice, the manager's
	// notices and its vector time.
	releaseAllocCap = 4
)
