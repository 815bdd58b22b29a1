//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunLayoutBytesCap holds a diff's memory diet: MakeDiff on the
// alternating page — 4096 one-byte runs — allocates runSize bytes a run
// plus the payload, rounded up to whole 8 KB pages as a large object is
// (24 KB), and nothing more (the collector off, so only MakeDiff
// allocates). Not built under the race detector, whose runtime allocates
// on its own account.
func TestRunLayoutBytesCap(t *testing.T) {
	twin, cur := benchPages("alternating")
	runs := MakeDiff(0, twin, cur)
	total := 0
	for _, r := range runs {
		total += int(r.Len)
	}
	limit := (runSize*len(runs) + total + 8191) &^ 8191
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		layoutSink = MakeDiff(0, twin, cur)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("MakeDiff/alternating: %d runs, %d payload bytes, %d bytes a call (cap %d)", len(runs), total, per, limit)
	if per > uint64(limit) {
		t.Errorf("MakeDiff/alternating allocates %d bytes a call, over the cap of %d", per, limit)
	}
}

// TestPageBuffersOneAllocationEach: a node's pool allocates exactly the
// page buffers it hands out, each on its own — page-size bytes and
// nothing more, no slab whose carved tail sits unused — and a recycled
// buffer costs nothing.
func TestPageBuffersOneAllocationEach(t *testing.T) {
	s := testSystem(t, 1, 1)
	addr, _ := s.Alloc("x", 3*s.cfg.PageSize)
	runApp(t, s, func(w *Thread) {
		for r := 0; r < 2; r++ {
			w.Lock(0)
			for p := 0; p < 3; p++ {
				w.WriteI64(addr+Addr(p*s.cfg.PageSize), int64(r)) // a copy, then a twin
			}
			w.Unlock(0) // the twins recycle
		}
	})
	n := s.nodes[0]
	held := len(n.pool.free)
	for pg := PageID(0); pg < 3; pg++ {
		for _, b := range [][]byte{n.peek(pg).data, n.peek(pg).twin} {
			if b != nil {
				held++
			}
		}
	}
	if n.pool.made != 6 || held != 6 || s.PageBuffers() != 6 {
		t.Fatalf("pool made %d buffers (PageBuffers %d), node holds %d; want 3 copies and 3 twins",
			n.pool.made, s.PageBuffers(), held)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bufs := make([][]byte, 5)
	fresh := len(bufs) - len(n.pool.free) // the recycled ones cost nothing
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range bufs {
		bufs[i] = n.pool.get(true)
	}
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d gets, %d fresh: %d allocations, %d bytes", len(bufs), fresh, mallocs, bytes)
	if mallocs != uint64(fresh) || bytes != uint64(fresh*s.cfg.PageSize) || n.pool.made != 6+fresh {
		t.Errorf("%d fresh buffers took %d allocations of %d bytes (pool counts %d), want one %d-byte page each",
			fresh, mallocs, bytes, n.pool.made-6, s.cfg.PageSize)
	}
	for _, b := range bufs {
		if len(b) != s.cfg.PageSize || cap(b) != s.cfg.PageSize {
			t.Errorf("buffer of %d bytes, capacity %d; want exactly a %d-byte page", len(b), cap(b), s.cfg.PageSize)
		}
	}
}
