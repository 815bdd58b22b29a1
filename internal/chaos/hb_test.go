package chaos

import (
	"fmt"
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/harness"
)

// TestScaleoutNoLostUpdate is the T≥2 lost update: at 42 nodes × 2
// threads, node 0 used to apply each barrier arrival's write notices as
// it landed, while its own threads were still faulting in the
// accumulator page. A later arrival's diff then landed on the page after
// a diff it happens-before, and one lock-guarded read-modify-write was
// lost. The run must reproduce the sequential reference (RunOne fails on
// a checksum mismatch) and keep diff-apply-hb silent, on both engines.
func TestScaleoutNoLostUpdate(t *testing.T) {
	for _, workers := range []int{0, 2} {
		c := harness.Cell{App: "scaleout", Nodes: 42, Threads: 2, Mut: func(cfg *cvm.Config) {
			cfg.EngineWorkers = workers
		}}
		res, err := RunOne(c, apps.SizeTest)
		if err != nil {
			t.Fatalf("engine-workers=%d: %v", workers, err)
		}
		if n := res.Checker.Count(); n != 0 {
			t.Errorf("engine-workers=%d: %d invariant violation(s):\n%v", workers, n, res.Checker.Err())
		}
	}
}

// TestHappensBeforeSweep holds every application and scaleout,
// fault-free, to the checker at 8×2 with and without adaptive coherence,
// on the sequential and the windowed engine: no node may apply a diff
// after one it happens-before (waternsq at 8×2 did, within its checksum
// tolerance).
func TestHappensBeforeSweep(t *testing.T) {
	for _, app := range append(harness.AppOrder[:len(harness.AppOrder):len(harness.AppOrder)], "scaleout") {
		for _, adapt := range []bool{false, true} {
			for _, workers := range []int{0, 2} {
				c := harness.Cell{App: app, Nodes: 8, Threads: 2, Mut: func(cfg *cvm.Config) {
					cfg.EngineWorkers, cfg.Adapt = workers, adapt
				}}
				ctx := fmt.Sprintf("%s 8x2 adapt=%v engine-workers=%d", app, adapt, workers)
				res, err := RunOne(c, apps.SizeTest)
				if err != nil {
					t.Errorf("%s: %v", ctx, err)
					continue
				}
				if n := res.Checker.Count(); n != 0 {
					t.Errorf("%s: %d invariant violation(s):\n%v", ctx, n, res.Checker.Err())
				}
			}
		}
	}
}
