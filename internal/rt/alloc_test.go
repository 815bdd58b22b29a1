//go:build !race

package rt

import (
	"runtime/debug"
	"testing"

	"cvm/internal/core"
)

// TestFaultAndFlushAllocCaps holds the page/diff pipeline's allocation
// diet at what it measures, both nodes counted. A remote fault is the
// pending slot's channel (two: header and buffer), the request and the
// reply, which becomes the cached page — no second copy of the master, no
// cache entry (8 before). A flushed diff is the channel's two, the
// payload encoded from the page and its twin, and the home's ack: no
// runs are built on either side and the home applies the wire (9 before:
// MakeDiff's two, EncodeRuns' filter scratch, the home's two decoded; 10
// before that, 4 KB of them the twin, which comes off the free list). The
// collector is off while they are measured, as in TestSpanAllocCaps.
func TestFaultAndFlushAllocCaps(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	onNode0(t, 2, func(w *Worker, base core.Addr) {
		faultOnce(w, base) // warm the transport's queues and the pending map
		flushOnce(w, base, 1)
		v := 1.0
		for _, tc := range []struct {
			name string
			cap  float64
			fn   func()
		}{
			{"remote fault", 4, func() { faultOnce(w, base) }},
			{"flushed diff", 4, func() { v++; flushOnce(w, base, v) }},
		} {
			got := testing.AllocsPerRun(200, tc.fn)
			t.Logf("%s: %.0f allocs (cap %.0f)", tc.name, got, tc.cap)
			if got > tc.cap {
				t.Errorf("%s: %.0f allocs exceeds cap %.0f", tc.name, got, tc.cap)
			}
		}
		if made := w.n.twinsMade.Load(); made != 1 {
			t.Errorf("%d twins made for one page dirtied over and over, want 1", made)
		}
	})
}
