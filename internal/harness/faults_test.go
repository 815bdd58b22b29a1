package harness

import (
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/metrics"
)

// chaosPlan is a shared fault plan for grid determinism tests: every
// dimension active, rates high enough to force retransmissions in a
// SizeTest run.
func chaosPlan(seed uint64) *cvm.FaultPlan {
	fp, err := cvm.ParseFaults("drop=0.02,dup=0.01,reorder=0.01,jitter=200us", seed)
	if err != nil {
		panic(err)
	}
	return fp
}

// runGrid runs a grid with tweak applied to every cell — the perturbed
// and metered forms of RunGridParallel.
func runGrid(t *testing.T, appList []string, shapes []Shape, workers int, tweak func(*Cell)) (Results, *metrics.Snapshot) {
	t.Helper()
	cells, err := GridCells(appList, apps.SizeTest, shapes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		tweak(&cells[i])
	}
	out, err := RunCells(cells, apps.SizeTest, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	return Collect(cells, out)
}

// TestFaultedGridDeterminism is the fault-injection determinism
// guard: the same (seed, faults) grid must produce bit-identical Results
// at any worker count. The fault PRNG is keyed on (seed, from, to,
// msgIndex) inside each cell's private simulation, so pool scheduling
// cannot leak into the fault schedule; one shared read-only *FaultPlan
// serves every concurrent cell.
func TestFaultedGridDeterminism(t *testing.T) {
	appList := []string{"sor", "waternsq"}
	shapes := GridShapes([]int{2, 4}, []int{1, 2})
	fp := chaosPlan(42)
	faulted := func(c *Cell) { c.Mut = func(cfg *cvm.Config) { cfg.Faults = fp } }

	seq, _ := runGrid(t, appList, shapes, 1, faulted)
	par, _ := runGrid(t, appList, shapes, 4, faulted)
	if !seq.Equal(par) {
		t.Fatal("faulted parallel Results differ from sequential")
	}

	// The plan must actually have injected: at these rates a full grid
	// with zero retransmissions means faults silently did not reach the
	// cells.
	var retransmits int64
	for _, st := range seq {
		retransmits += st.Total.Retransmits
	}
	if retransmits == 0 {
		t.Error("faulted grid recorded zero retransmissions")
	}

	// Repeatability: a fresh run of the same grid is bit-identical too.
	again, _ := runGrid(t, appList, shapes, 4, faulted)
	if !seq.Equal(again) {
		t.Fatal("repeated faulted grid diverged")
	}
}
