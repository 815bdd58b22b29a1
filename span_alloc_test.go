//go:build !race

package cvm_test

import "testing"

// TestSpanAllocCaps holds the access path's allocation diet: allocs per
// whole run (cluster, matrix and sweep) may not exceed the recorded
// caps, in either form of any kernel. A run parks goroutines on
// channels, and about one AllocsPerRun measurement in four (each one
// resizes the scheduler to a single P) reads an allocation high on
// every run; the code's own count is the least of several, so an
// over-cap reading is measured again before it fails. Not built under
// the race detector, whose runtime allocates on its own account.
func TestSpanAllocCaps(t *testing.T) {
	for _, k := range spanKernels {
		for _, form := range k.forms() {
			measure := func() float64 {
				return testing.AllocsPerRun(20, func() { runSpanKernel(t, form.fn) })
			}
			got := measure()
			for retry := 0; got > form.cap && retry < 8; retry++ {
				got = min(got, measure())
			}
			t.Logf("%s/%s: %.0f allocs/run (cap %.0f)", k.name, form.name, got, form.cap)
			if got > form.cap {
				t.Errorf("%s/%s: %.0f allocs/run exceeds cap %.0f", k.name, form.name, got, form.cap)
			}
		}
	}
}
