//go:build !race

package cvm_test

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSpanAllocCaps holds the access path's allocation diet: allocs
// per whole run (cluster, matrix and sweep) may not exceed the
// recorded caps plus one allocation for each page buffer (a page's
// copy or twin) and page-table shard the run took, in either form of
// any kernel. The caps are the counts measured with one node and one
// thread, page buffers and shards aside; 11 of each are the thread's coroutine (iter.Pull: its
// captured state, the coro and the closures next, stop and yield —
// paid once per spawned task, never per access, hand-off or event),
// which is what they rose by when tasks stopped being goroutines
// parked on channels. The collector is off while a form is measured:
// AllocsPerRun also counts what the runtime allocates for itself in
// every collection cycle (the unique-map cleanup, a sudog at mark
// termination), and a form whose 20 runs span enough cycles read one
// high for as long as the process's heap goal stayed where it was.
// Not built under the race detector, whose runtime allocates on its
// own account.
func TestSpanAllocCaps(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, k := range spanKernels {
		for _, form := range k.forms() {
			runtime.GC()
			buffers := float64(runSpanKernel(t, form.fn))
			got := testing.AllocsPerRun(20, func() { runSpanKernel(t, form.fn) })
			t.Logf("%s/%s: %.0f allocs/run = %.0f + %.0f page buffers and shards (cap %.0f + them)",
				k.name, form.name, got, got-buffers, buffers, form.cap)
			if got > form.cap+buffers {
				t.Errorf("%s/%s: %.0f allocs/run exceeds cap %.0f + %.0f page buffers and shards",
					k.name, form.name, got, form.cap, buffers)
			}
		}
	}
}
