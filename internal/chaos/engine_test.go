package chaos

import (
	"fmt"
	"testing"

	"cvm/internal/apps"
)

// TestEngineWorkersUnderChaos is the engine-parallelism axis of the
// chaos suite: the same fuzzed fault schedule must yield the fault-free
// checksum and zero invariant violations on the sequential engine and on
// the windowed engine at several worker counts — and the windowed runs
// must agree with each other on every statistic.
func TestEngineWorkersUnderChaos(t *testing.T) {
	app := "sor"
	want := baseline(t, app)
	for _, seed := range []uint64{7, 19} {
		spec := RandomSpec(seed)
		fp := mustPlan(t, spec, seed)
		var first *Result
		for _, workers := range []int{0, 1, 2, 4} {
			res, err := RunOne(cell(app, fp, workers), apps.SizeTest)
			ctx := fmt.Sprintf("%s spec=%q seed=%d engine-workers=%d", app, spec, seed, workers)
			assertClean(t, app, ctx, res, err)
			if res.Checksum != want {
				t.Errorf("%s: checksum %x, fault-free baseline %x", ctx, res.Checksum, want)
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
				t.Errorf("%s: windowed stats diverge from workers=%d", ctx, 1)
			}
		}
	}
}
