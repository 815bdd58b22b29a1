//go:build !race

package core

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestRunLayoutBytesCap holds a diff's memory diet: MakeDiff on the
// alternating page — 4096 one-byte runs — allocates 8 bytes a run plus
// the payload, rounded up to whole 8 KB pages as a large object is, and
// nothing more (the collector off, so only MakeDiff allocates). Not
// built under the race detector, whose runtime allocates on its own
// account.
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
