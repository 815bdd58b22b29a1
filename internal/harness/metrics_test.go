package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"cvm/internal/apps"
	"cvm/internal/metrics"
)

// TestMeteredGridDeterminism mirrors the PR 1 results_identical
// guard for the metrics layer: the aggregated snapshot must serialize
// byte-identically whether the grid ran sequentially or on 4 workers
// (cell snapshots merge in job order, not completion order), and across
// repeated runs of the same grid.
func TestMeteredGridDeterminism(t *testing.T) {
	appList := []string{"sor", "waternsq"}
	shapes := GridShapes([]int{2, 4}, []int{1, 2})

	metered := func(c *Cell) { c.Metrics = true }
	seqRes, seqSnap := runGrid(t, appList, shapes, 1, metered)
	parRes, parSnap := runGrid(t, appList, shapes, 4, metered)

	if !seqRes.Equal(parRes) {
		t.Fatal("parallel Results differ from sequential")
	}
	seqJSON := marshalSnap(t, seqSnap)
	parJSON := marshalSnap(t, parSnap)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("aggregated metrics snapshot differs between sequential and parallel runs")
	}

	// Repeatability: the same grid again produces the same bytes.
	_, again := runGrid(t, appList, shapes, 4, metered)
	if !bytes.Equal(seqJSON, marshalSnap(t, again)) {
		t.Fatal("aggregated metrics snapshot differs between repeated runs")
	}

	// The report built from the snapshot is deterministic too.
	r1 := metrics.NewReport(metrics.Meta{App: "grid"}, seqSnap, 10)
	r2 := metrics.NewReport(metrics.Meta{App: "grid"}, parSnap, 10)
	var b1, b2 bytes.Buffer
	if err := r1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("reports differ between sequential and parallel grids")
	}
}

// TestMeteredGridMatchesPlainGrid asserts the metrics-attached grid
// produces exactly the Results of the plain grid: attaching registries
// is A/B-neutral for every cell.
func TestMeteredGridMatchesPlainGrid(t *testing.T) {
	appList := []string{"sor", "waternsq"}
	shapes := GridShapes([]int{2, 4}, []int{1, 2})

	plain, err := RunGridParallel(appList, apps.SizeTest, shapes, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	metered, snap := runGrid(t, appList, shapes, 2, func(c *Cell) { c.Metrics = true })
	if !plain.Equal(metered) {
		t.Fatal("Results differ with metrics attached (observation perturbed the simulation)")
	}
	// Aggregation covered every cell: 8 cells × nodes histograms all
	// carry observations.
	if len(snap.Nodes) != 4 {
		t.Fatalf("aggregate snapshot has %d node slots, want max nodes 4", len(snap.Nodes))
	}
	var total int64
	for _, n := range snap.Nodes {
		total += n.UserBurst.Count
	}
	if total == 0 {
		t.Fatal("aggregate snapshot is empty")
	}
}

func marshalSnap(t *testing.T, s *metrics.Snapshot) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
