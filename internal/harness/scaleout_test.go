package harness

import (
	"bytes"
	"testing"

	"cvm/internal/apps"
)

// TestScaleSmoke is the `make scale-smoke` gate: a 256-node scaleout run
// must complete on the conservative windowed engine, reproduce the
// sequential engine's checksum (the repo-wide correctness oracle; the
// two engines legally differ in same-timestamp tie order, so virtual
// timings may drift), and be byte-identical — checksum, statistics,
// metrics report, trace — across windowed worker counts. This is the
// determinism guard at a cluster size far past anything the paper grid
// exercises (and past the old 64-node copyset ceiling).
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node smoke skipped in -short")
	}
	if raceEnabled {
		// ~10x slowdown at this size; the windowed engine's goroutines
		// get race coverage from TestGuardDeterminism at small sizes.
		t.Skip("256-node smoke skipped under the race detector")
	}
	cell := Cell{App: "scaleout", Nodes: 256, Threads: 1}
	// Engine workers 0 is the sequential engine, the correctness oracle.
	seq, err := RunDeterminismProbe(cell, apps.SizeTest, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunDeterminismProbe(cell, apps.SizeTest, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Checksum != seq.Checksum {
		t.Fatalf("windowed engine checksum %v, sequential %v", base.Checksum, seq.Checksum)
	}
	p, err := RunDeterminismProbe(cell, apps.SizeTest, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.diff(p); err != nil {
		t.Fatalf("windowed engine workers 1 vs 2 diverged: %v", err)
	}
	if seq.Stats.Total.RemoteFaults == 0 || seq.Stats.Total.RemoteLocks == 0 {
		t.Errorf("smoke run exercised no remote primitives: %+v", seq.Stats.Total)
	}
}

// TestRunScaleStudy checks the study runner end to end at toy sizes:
// schema population, the compression win, and JSON round-tripping.
func TestRunScaleStudy(t *testing.T) {
	study, err := RunScaleStudy([]int{2, 4}, 2, apps.SizeTest, []bool{false, true}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(study.Points))
	}
	for i := 0; i < len(study.Points); i += 2 {
		raw, comp := study.Points[i], study.Points[i+1]
		if raw.Compress || !comp.Compress {
			t.Fatalf("point order: %+v then %+v", raw, comp)
		}
		if raw.Nodes != comp.Nodes || raw.Checksum != comp.Checksum {
			t.Errorf("compression changed the result: %+v vs %+v", raw, comp)
		}
		if comp.DiffBytes >= raw.DiffBytes {
			t.Errorf("nodes=%d: compressed diff bytes %d not below raw %d",
				raw.Nodes, comp.DiffBytes, raw.DiffBytes)
		}
		if raw.Pages <= 0 || raw.WallNs <= 0 || raw.RemoteFaults <= 0 {
			t.Errorf("nodes=%d: implausible point %+v", raw.Nodes, raw)
		}
	}

	var buf bytes.Buffer
	if err := WriteScaleBaseline(&buf, study); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScaleBaseline(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Cores < 1 || back.Cores != study.Cores || back.GOMAXPROCS < 1 || back.GOMAXPROCS != study.GOMAXPROCS {
		t.Errorf("header lost the host's cores/gomaxprocs: %d/%d from %d/%d",
			back.Cores, back.GOMAXPROCS, study.Cores, study.GOMAXPROCS)
	}
	if len(back.Points) != len(study.Points) || back.Points[3] != study.Points[3] {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}
