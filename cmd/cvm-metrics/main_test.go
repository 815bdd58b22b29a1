package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cvm/internal/metrics"
)

// writeReport builds a small report with count scaled by k and mean
// latency around lat, and writes it to dir/name.
func writeReport(t *testing.T, dir, name string, count int, lat int64) string {
	t.Helper()
	reg := metrics.NewRegistry()
	reg.Configure(1, []string{"Lock"})
	snap := reg.Snapshot()
	for i := 0; i < count; i++ {
		snap.Nodes[0].Lock2Hop.Observe(lat + int64(i))
		snap.Nodes[0].UserBurst.Observe(1000)
	}
	rep := metrics.NewReport(metrics.Meta{App: "test"}, snap, 5)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestArgValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no subcommand", nil, "<show|diff-backends|scrape>"},
		{"unknown subcommand", []string{"frobnicate"}, "unknown subcommand"},
		{"show no file", []string{"show"}, "usage"},
		{"show missing file", []string{"show", "/nonexistent/x.json"}, "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want it to contain %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestShowRendersReport(t *testing.T) {
	dir := t.TempDir()
	path := writeReport(t, dir, "rep.json", 5, 900_000)
	var out bytes.Buffer
	if err := run([]string{"show", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "latency histograms") ||
		!strings.Contains(out.String(), "lock_2hop") {
		t.Errorf("show output missing histogram table: %q", out.String())
	}
}

// writeBackendReport builds a minimal report with the given sync
// counters; real selects whether it carries a Real section (i.e. which
// backend it claims to come from).
func writeBackendReport(t *testing.T, dir, name string, lockAcquires, barriers int64, real bool) string {
	t.Helper()
	snap := &metrics.Snapshot{Nodes: make([]metrics.NodeMetrics, 2), MsgClasses: []string{"Lock"}}
	snap.LockAcquires.Add(lockAcquires)
	snap.LockReleases.Add(lockAcquires)
	snap.BarrierArrivals.Add(barriers)
	snap.Nodes[0].FaultService.Observe(5000)
	rep := metrics.NewReport(metrics.Meta{App: "sor", Config: "2x1 size=test"}, snap, 5)
	if real {
		rep.Real = &metrics.RealStats{Backend: "loopback", Nodes: 2, ElapsedNs: 1e6}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffBackendsGate(t *testing.T) {
	dir := t.TempDir()
	sim := writeBackendReport(t, dir, "sim.json", 10, 4, false)
	same := writeBackendReport(t, dir, "same.json", 10, 4, true)
	drifted := writeBackendReport(t, dir, "drifted.json", 11, 4, true)

	var out bytes.Buffer
	if err := run([]string{"diff-backends", sim, same}, &out); err != nil {
		t.Errorf("matching reports failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "backend-invariant counters match exactly") {
		t.Errorf("missing verdict line:\n%s", out.String())
	}

	out.Reset()
	err := run([]string{"diff-backends", sim, drifted}, &out)
	if err == nil {
		t.Fatalf("drifted counters passed the gate:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "lock_acquires") {
		t.Errorf("gate error %q does not name the drifted counter", err)
	}
	if !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("table does not flag the mismatch:\n%s", out.String())
	}
}

func TestDiffBackendsRejectsSwappedArguments(t *testing.T) {
	dir := t.TempDir()
	sim := writeBackendReport(t, dir, "sim.json", 10, 4, false)
	real := writeBackendReport(t, dir, "real.json", 10, 4, true)
	var out bytes.Buffer
	if err := run([]string{"diff-backends", real, sim}, &out); err == nil ||
		!strings.Contains(err.Error(), "simulator report") {
		t.Errorf("swapped arguments = %v, want backend-identity error", err)
	}
}

// TestDiffBackendsSuppressesStructurallyZero pins the suppression list
// for the informational time-metrics table: metrics the real runtime
// cannot record by construction (lock_3hop — centralized managers
// answer every remote grant in two hops) are dropped when empty on the
// real side, and printed when, against expectation, they are not.
func TestDiffBackendsSuppressesStructurallyZero(t *testing.T) {
	want := map[string]bool{"lock_3hop": true}
	if len(structurallyZeroReal) != len(want) {
		t.Errorf("suppression list = %v, want %v — update this pin alongside the list", structurallyZeroReal, want)
	}
	for name := range want {
		if !structurallyZeroReal[name] {
			t.Errorf("suppression list %v is missing %q", structurallyZeroReal, name)
		}
	}

	dir := t.TempDir()
	sim := writeBackendReport(t, dir, "sim.json", 10, 4, false)
	real := writeBackendReport(t, dir, "real.json", 10, 4, true)

	// The sim-side fixture observed a 3-hop grant; the real side cannot.
	simRep, err := readReportFile(sim)
	if err != nil {
		t.Fatal(err)
	}
	simRep.Snapshot.Nodes[0].Lock3Hop.Observe(7000)
	var buf bytes.Buffer
	if err := simRep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sim, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"diff-backends", sim, real}, &out); err != nil {
		t.Fatalf("gate failed: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "lock_3hop") {
		t.Errorf("structurally-zero lock_3hop printed in the info table:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "fault_service") {
		t.Errorf("genuinely observed metric missing from the info table:\n%s", out.String())
	}

	// A real backend that somehow records a 3-hop grant is news: print it.
	realRep, err := readReportFile(real)
	if err != nil {
		t.Fatal(err)
	}
	realRep.Snapshot.Nodes[0].Lock3Hop.Observe(9000)
	buf.Reset()
	if err := realRep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(real, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"diff-backends", sim, real}, &out); err != nil {
		t.Fatalf("gate failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "lock_3hop") {
		t.Errorf("unexpected real-side lock_3hop suppressed:\n%s", out.String())
	}
}
