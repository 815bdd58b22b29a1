package chaos

import (
	"fmt"
	"testing"

	"cvm/internal/apps"
	"cvm/internal/harness"
)

// TestAdaptiveUnderChaos is the adaptive axis of the chaos suite: fuzzed
// fault schedules against runs with per-page mode switching enabled,
// across the sequential engine and the windowed engine at several
// worker counts. Adaptation must not change the computation (fault-free
// checksum, bit for bit), must stay invariant-clean under faults, and
// the windowed runs must agree with each other on every statistic —
// mode decisions are functions of per-epoch protocol observations, so
// engine parallelism and retransmission timing must not leak in.
func TestAdaptiveUnderChaos(t *testing.T) {
	for _, app := range []string{
		"sor",    // barrier-phased producer-consumer pages
		"barnes", // an irregular sharer set
	} {
		want := baseline(t, app)
		for _, seed := range []uint64{7, 19} {
			spec := RandomSpec(seed)
			fp := mustPlan(t, spec, seed)
			var first *Result
			for _, workers := range []int{0, 1, 2, 4} {
				res, err := RunOne(cell(app, fp, workers, true), apps.SizeTest)
				ctx := fmt.Sprintf("%s adapt spec=%q seed=%d engine-workers=%d",
					app, spec, seed, workers)
				assertClean(t, app, ctx, res, err)
				if res.Checksum != want {
					t.Errorf("%s: checksum %x, fault-free baseline %x", ctx, res.Checksum, want)
				}
				if err == nil && res.Stats.Total.ModeChanges == 0 {
					t.Errorf("%s: adaptive run applied no mode changes (axis not exercised)", ctx)
				}
				if workers == 0 {
					continue // sequential timing may differ from windowed
				}
				if first == nil {
					r := res
					first = &r
					continue
				}
				if res.Stats.Wall != first.Stats.Wall ||
					res.Stats.Total != first.Stats.Total ||
					!res.Stats.Net.Equal(first.Stats.Net) {
					t.Errorf("%s: windowed stats diverge from workers=1", ctx)
				}
			}
		}
	}
}

// TestAdaptiveFaultFree pins the no-fault adaptive runs across the whole
// suite: every application runs clean under -adapt with zero invariant
// violations and its fault-free checksum.
func TestAdaptiveFaultFree(t *testing.T) {
	for _, app := range harness.AppOrder {
		app := app
		t.Run(app, func(t *testing.T) {
			res, err := RunOne(cell(app, nil, 0, true), apps.SizeTest)
			assertClean(t, app, "adapt fault-free", res, err)
		})
	}
}
