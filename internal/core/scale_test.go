package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"cvm/internal/sim"
)

// TestSWProtocolBeyond64Nodes is the regression test for the copyset's
// former uint64 representation: with 65 nodes, node 64's membership bit
// wrapped around (Go defines 1<<64 on uint64 as 0), so node 64 silently
// vanished from every copyset, write invalidations skipped it, and it
// read stale data forever. The scenario forces exactly that path: node
// 64 joins a read copyset, another node writes, node 64 must observe the
// new value.
func TestSWProtocolBeyond64Nodes(t *testing.T) {
	const nodes = 65
	cfg := DefaultConfig(nodes, 1)
	cfg.Protocol = ProtocolSW
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := s.Alloc("x", cfg.PageSize)
	runApp(t, s, func(w *Thread) {
		if w.GlobalID() == 64 {
			w.WriteI64(addr, 7)
		}
		w.Barrier(0)
		// Every node reads: all 65 nodes join the copyset.
		if v := w.ReadI64(addr); v != 7 {
			t.Errorf("node %d phase 2: read %d, want 7", w.GlobalID(), v)
		}
		w.Barrier(1)
		if w.GlobalID() == 3 {
			// Invalidation must fan out to all 64 other copies — node 64
			// included.
			w.WriteI64(addr, 9)
		}
		w.Barrier(2)
		if v := w.ReadI64(addr); v != 9 {
			t.Errorf("node %d phase 4: read %d, want 9 (stale copy not invalidated)", w.GlobalID(), v)
		}
	})
	// After phase 4 every node holds a read copy again: node 64 — the
	// node the old bitmask lost — must be a member.
	d := s.nodes[0].swdir[0]
	if d == nil {
		t.Fatal("no directory entry at the manager")
	}
	if got := d.copyset.size(); got != nodes {
		t.Errorf("final copyset size = %d, want %d (all readers rejoined)", got, nodes)
	}
	if !d.copyset.contains(64) {
		t.Error("node 64 missing from the copyset (the old uint64 wraparound bug)")
	}
	if d.owner != 3 {
		t.Errorf("owner = %d, want 3 (the phase-3 writer)", d.owner)
	}
}

// TestLRCBeyond64Nodes runs the default lazy-multi-writer protocol past
// the old ceiling: 65 nodes incrementing one counter under a lock, with
// interval/write-notice machinery exercised end to end.
func TestLRCBeyond64Nodes(t *testing.T) {
	const nodes = 65
	s := testSystem(t, nodes, 1)
	addr, _ := s.Alloc("counter", s.cfg.PageSize)
	runApp(t, s, func(w *Thread) {
		w.Lock(1)
		w.WriteI64(addr, w.ReadI64(addr)+1)
		w.Unlock(1)
		w.Barrier(0)
		w.Lock(1)
		if v := w.ReadI64(addr); v != nodes {
			t.Errorf("node %d: counter = %d, want %d", w.GlobalID(), v, nodes)
		}
		w.Unlock(1)
	})
}

// TestFirstTouchMaterialization: page-table shards materialize on first
// touch only — a node whose threads work in a narrow address range holds
// page structs for that range alone, no matter how large the shared
// segment is — and the directory root has one entry per 4,096 pages,
// with a leaf behind it only for ranges the node touched.
func TestFirstTouchMaterialization(t *testing.T) {
	// The runtime heads an object over 512 bytes that holds pointers with
	// 8 bytes; a shard that fits the 2 KB size class only without them
	// takes the next one, 2,304 bytes.
	if sz := unsafe.Sizeof(pageShard{}); sz+8 > 2048 {
		t.Errorf("a shard is %d bytes, over the 2 KB size class with its header", sz)
	}
	s := testSystem(t, 2, 1)
	const pages = 100_000 // 6,250 shards, 25 leaves of address space
	base, _ := s.Alloc("big", pages*s.cfg.PageSize)
	if base != 0 {
		t.Fatalf("segment at %d, want 0", base)
	}
	runApp(t, s, func(w *Thread) {
		if w.GlobalID() == 0 {
			w.WriteI64(base, 1)                             // shard 0, leaf 0
			w.WriteI64(base+Addr(77*s.cfg.PageSize), 2)     // shard 4, leaf 0
			w.WriteI64(base+Addr(40_000*s.cfg.PageSize), 3) // shard 2,500, leaf 9
		}
		w.Barrier(0)
		if w.GlobalID() == 1 {
			if v := w.ReadI64(base); v != 1 {
				t.Errorf("read %d, want 1", v)
			}
		}
	})
	for id, want := range []struct {
		shards int
		leaves []int // root entries with a leaf behind them
	}{{3, []int{0, 9}}, {1, []int{0}}} {
		n := s.nodes[id]
		if n.shardCount != want.shards {
			t.Errorf("node %d materialized %d shards, want %d", id, n.shardCount, want.shards)
		}
		if got := len(n.root); got != (pages+4_095)/4_096 {
			t.Errorf("node %d directory root has %d entries, want one per 4,096 pages", id, got)
		}
		for i, l := range n.root {
			if touched := slices.Contains(want.leaves, i); (l != nil) != touched {
				t.Errorf("node %d leaf %d present = %v, want %v", id, i, l != nil, touched)
			}
		}
	}
	if p := s.nodes[1].peek(PageID(50_000)); p != nil {
		t.Error("untouched page has a materialized struct")
	}
}

// TestNoticeFoldOnMaterialize: write notices for a shard a node has not
// touched stay in the interval records and are folded into the shard's
// pages when the node first touches it. Node 0 writes a far page P over
// three lock intervals (and Q in the second), node 2 writes P once, and
// node 1 then takes the lock without touching the shard: its first read
// of P faults once, fetches exactly the diffs for intervals (0, wanted]
// of each writer and reads the latest values, while an unwritten page of
// the same shard stays read-only.
func TestNoticeFoldOnMaterialize(t *testing.T) {
	s := testSystem(t, 3, 1)
	ps := Addr(s.cfg.PageSize)
	base, _ := s.Alloc("far", 40_000*s.cfg.PageSize)
	const far = 320 * pageShardSize // first page of a shard in leaf 1
	P, Q, U := base+far*ps+ps, base+far*ps+2*ps, base+far*ps+3*ps
	pg := func(a Addr) PageID { return PageID(a / ps) }
	n1 := s.nodes[1]
	runApp(t, s, func(w *Thread) {
		switch w.GlobalID() {
		case 0:
			for r := int64(1); r <= 3; r++ {
				w.Lock(0)
				w.WriteI64(P, r)
				if r == 2 {
					w.WriteI64(Q, 7)
				}
				w.Unlock(0)
			}
		case 2:
			w.Compute(sim.Second)
			w.Lock(0)
			w.WriteI64(P+8, 42)
			w.Unlock(0)
		case 1:
			w.Compute(2 * sim.Second)
			w.Lock(0)
			if n1.peek(pg(P)) != nil || n1.root[1] != nil {
				t.Error("taking the lock materialized the written shard")
			}
			faults, used := n1.stats.RemoteFaults, n1.stats.DiffsUsed
			if v, v2 := w.ReadI64(P), w.ReadI64(P+8); v != 3 || v2 != 42 {
				t.Errorf("read P = %d, %d; want 3, 42", v, v2)
			}
			if d := n1.stats.RemoteFaults - faults; d != 1 {
				t.Errorf("reading P took %d remote faults, want 1", d)
			}
			if d := n1.stats.DiffsUsed - used; d != 4 {
				t.Errorf("reading P applied %d diffs, want 4: node 0's (0,3] and node 2's (0,1]", d)
			}
			p := n1.peek(pg(P))
			want := []pageWriter{{node: 0, applied: 3, wanted: 3}, {node: 2, applied: 1, wanted: 1}}
			if !slices.Equal(p.writers, want) {
				t.Errorf("P's writers %+v, want %+v", p.writers, want)
			}
			if q := n1.peek(pg(Q)); q.state != PageInvalid || !slices.Equal(q.writers, []pageWriter{{node: 0, wanted: 2}}) {
				t.Errorf("Q folded to %v %+v, want invalid with node 0 wanting 2", q.state, q.writers)
			}
			if u := n1.peek(pg(U)); u.state != PageReadOnly || len(u.writers) != 0 {
				t.Errorf("unwritten U is %v with writers %+v, want read-only and none", u.state, u.writers)
			}
			if v := w.ReadI64(U); v != 0 || n1.stats.RemoteFaults-faults != 1 {
				t.Errorf("reading U gave %d after %d faults, want 0 and no new fault", v, n1.stats.RemoteFaults-faults)
			}
			w.Unlock(0)
		}
	})
}

// TestPoolReuseAfterInvalidate: a page buffer released by a single-writer
// invalidation is recycled for the node's next materialization instead of
// allocating a fresh one.
func TestPoolReuseAfterInvalidate(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Protocol = ProtocolSW
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := s.Alloc("x", 4*cfg.PageSize)
	runApp(t, s, func(w *Thread) {
		if w.GlobalID() == 0 {
			w.WriteI64(base, 1) // node 0 materializes page 0
		}
		w.Barrier(0)
		if w.GlobalID() == 1 {
			w.WriteI64(base, 2) // invalidates node 0's copy → buffer pooled
		}
		w.Barrier(1)
		if w.GlobalID() == 0 {
			// New page: materialization must reuse the pooled buffer.
			w.WriteI64(base+Addr(2*cfg.PageSize), 3)
		}
	})
	n0 := s.nodes[0]
	if p := n0.peek(0); p == nil || p.data != nil {
		t.Error("node 0's invalidated copy of page 0 still holds a buffer")
	}
	if p := n0.peek(2); p == nil || p.data == nil {
		t.Error("node 0's page 2 never materialized")
	}
	if got := len(n0.pool.free); got != 0 {
		t.Errorf("node 0 free list has %d buffers; the recycled buffer was not reused", got)
	}
}

// TestTwinPoolReuse: LRC twins return to the pool when the interval
// closes and are reused by the next write episode.
func TestTwinPoolReuse(t *testing.T) {
	s := testSystem(t, 2, 1)
	addr, _ := s.Alloc("x", s.cfg.PageSize)
	runApp(t, s, func(w *Thread) {
		if w.GlobalID() == 0 {
			for r := 0; r < 3; r++ {
				w.Lock(0)
				w.WriteI64(addr, int64(r)) // twin created
				w.Unlock(0)                // interval closes, twin pooled
			}
		}
		w.Barrier(0)
	})
	n0 := s.nodes[0]
	if p := n0.peek(0); p == nil || p.twin != nil {
		t.Fatal("twin still attached after the final interval close")
	}
	// Three write episodes, one data buffer + one twin buffer total: the
	// twin slot was recycled twice, so exactly one buffer sits free.
	if got := len(n0.pool.free); got != 1 {
		t.Errorf("free list has %d buffers, want 1 (the recycled twin)", got)
	}
	if n0.pool.made != 2 {
		t.Errorf("pool allocated %d buffers for a 2-buffer working set", n0.pool.made)
	}
}

// TestMemoryFootprintMillionPages is the scale-out memory guarantee: a
// 1024-node system over a million-page (8 GB) shared segment, with each
// node touching a tiny working set, stays under a fixed heap budget.
// The eager layout this replaced allocated ~16 MB of page structs plus
// an 8 GB pageVec equivalent *per node* before the first fault.
func TestMemoryFootprintMillionPages(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-node system in -short mode")
	}
	const nodes = 1024
	const pages = 1 << 20 // 8 GB of address space at 8 KB pages
	cfg := DefaultConfig(nodes, 1)
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := s.Alloc("huge", pages*cfg.PageSize)
	if got := int(s.allocated) >> s.pageShift; got < pages {
		t.Fatalf("allocated %d pages, want ≥ %d", got, pages)
	}
	// Each node writes one word in its own page of a dense strip and
	// reads its neighbor's — a tiny per-node working set with real
	// cross-node coherence traffic (write notices for all 1024 strip
	// pages reach every node).
	runApp(t, s, func(w *Thread) {
		g := w.GlobalID()
		own := base + Addr(g*cfg.PageSize)
		w.WriteI64(own, int64(g)+1)
		w.Barrier(0)
		peer := base + Addr(((g+1)%nodes)*cfg.PageSize)
		if v := w.ReadI64(peer); v != int64((g+1)%nodes)+1 {
			t.Errorf("node %d: neighbor read %d", g, v)
		}
	})
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const budget = 56 << 20
	t.Logf("HeapAlloc = %d MB after the run", ms.HeapAlloc>>20)
	if ms.HeapAlloc > budget {
		t.Errorf("HeapAlloc = %d MB after the run, budget %d MB",
			ms.HeapAlloc>>20, budget>>20)
	}
	// Notices for the whole strip reach every node, but a node makes
	// only the shards of its own page and its neighbor's.
	for id, n := range s.nodes {
		if n.shardCount > 2 {
			t.Fatalf("node %d materialized %d shards for a 2-page working set", id, n.shardCount)
		}
	}
}
