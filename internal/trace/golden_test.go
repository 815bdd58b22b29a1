package trace_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace file")

const microPage = 8 << 10

// microWorkload is a tiny deterministic exercise of every traced
// protocol path: local and remote faults, twins and diffs, a contended
// global lock, local and global barriers, and thread switches.
func microWorkload(w cvm.Worker, base cvm.Addr) {
	w.Barrier(0)
	if w.LocalID() == 0 {
		// One writer per node: twin + diff on the node's own page.
		w.WriteF64(base+cvm.Addr(w.NodeID()*microPage), float64(w.NodeID()+1))
	}
	w.LocalBarrier(0)
	w.Barrier(1)
	// Read the other node's page: one remote fault per node (the
	// co-located thread joins it as Block Same Page).
	other := (w.NodeID() + 1) % w.Nodes()
	_ = w.ReadF64(base + cvm.Addr(other*microPage))
	// A shared counter under a global lock: remote and local acquires.
	ctr := base + cvm.Addr(2*microPage)
	w.Lock(0)
	w.WriteF64(ctr, w.ReadF64(ctr)+1)
	w.Unlock(0)
	w.Barrier(2)
}

// microTrace runs the micro workload on 2 nodes x 2 threads and returns
// the recorded trace.
func microTrace(t *testing.T) *trace.Recorder {
	t.Helper()
	rec := trace.NewRecorder(2, 2, 0)
	cfg := cvm.DefaultConfig(2, 2)
	cfg.Tracer = rec
	cluster, err := cvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.MustAlloc("micro", 3*microPage)
	if _, err := cluster.Run(func(w cvm.Worker) { microWorkload(w, base) }); err != nil {
		t.Fatal(err)
	}
	return rec
}

func exportChrome(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteChrome(&b, rec); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestGoldenTrace is the regression oracle for the protocol's event
// ordering: the simulator is deterministic, so the exported trace of a
// fixed workload must be byte-identical run to run. Regenerate with
// `go test ./internal/trace -run TestGoldenTrace -update` after an
// intentional protocol or exporter change, and review the diff.
func TestGoldenTrace(t *testing.T) {
	got := exportChrome(t, microTrace(t))
	golden := filepath.Join("testdata", "micro_trace.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace diverged from %s (%d bytes, want %d); the protocol's "+
			"event order changed — if intentional, regenerate with -update",
			golden, len(got), len(want))
	}
}

// TestWriteChromeMatchesReferenceOnRuns is the differential oracle on
// recorded streams: the golden program's and one paper application's
// must export to the same bytes through the writer and through the
// fmt-based one it replaced (chrome_ref_test.go).
func TestWriteChromeMatchesReferenceOnRuns(t *testing.T) {
	water := trace.NewRecorder(8, 4, 0)
	cfg := cvm.DefaultConfig(8, 4)
	cfg.Tracer = water
	if _, _, err := apps.RunConfig("waternsq", apps.SizeTest, cfg); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*trace.Recorder{"micro": microTrace(t), "waternsq 8x4 test": water} {
		var want bytes.Buffer
		if err := trace.WriteChromeRef(&want, rec); err != nil {
			t.Fatal(err)
		}
		if got := exportChrome(t, rec); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: %d events export to %d bytes, the reference writer to %d, and they differ",
				name, rec.Len(), len(got), want.Len())
		}
	}
}

// recordedRuns records waternsq 8x4, eight rings of four threads, and
// scaleout 64x1, where deliveries recorded at their send displace a
// ring's events the most.
func recordedRuns(t *testing.T) map[string]*trace.Recorder {
	t.Helper()
	runs := make(map[string]*trace.Recorder)
	for _, c := range []struct {
		app            string
		nodes, threads int
	}{{"waternsq", 8, 4}, {"scaleout", 64, 1}} {
		rec := trace.NewRecorder(c.nodes, c.threads, 0)
		cfg := cvm.DefaultConfig(c.nodes, c.threads)
		cfg.Tracer = rec
		if _, _, err := apps.RunConfig(c.app, apps.SizeTest, cfg); err != nil {
			t.Fatal(err)
		}
		runs[fmt.Sprintf("%s %dx%d", c.app, c.nodes, c.threads)] = rec
	}
	return runs
}

// TestOrderMatchesReferenceOnRuns holds the repair-and-merge order to
// the reference sort on the recorded runs.
func TestOrderMatchesReferenceOnRuns(t *testing.T) {
	for name, rec := range recordedRuns(t) {
		if got, want := rec.Events(), trace.EventsRef(rec); !slices.Equal(got, want) {
			t.Errorf("%s: Events() differs from the reference sort over %d events", name, len(want))
		}
	}
}

// TestPackedBytesPerEvent caps what a retained event costs on the
// recorded runs: the rings' blocks, their unfilled ends included, over
// the events they hold. A ring that kept the 64-byte Event fails it.
func TestPackedBytesPerEvent(t *testing.T) {
	for name, rec := range recordedRuns(t) {
		per := float64(trace.RetainedBytes(rec)) / float64(rec.Len())
		t.Logf("%s: %d events in %d bytes, %.1f bytes an event", name, rec.Len(), trace.RetainedBytes(rec), per)
		if per > 24 {
			t.Errorf("%s: %.1f retained bytes an event, cap 24", name, per)
		}
	}
}

// TestTraceDeterministicConcurrent re-records the same workload from
// several goroutines at once and demands byte-identical exports: the
// harness runs independent simulations in parallel (-parallel), and a
// trace must not depend on what else the process is doing.
func TestTraceDeterministicConcurrent(t *testing.T) {
	const runs = 4
	out := make([][]byte, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = exportChrome(t, microTrace(t))
		}(i)
	}
	wg.Wait()
	for i := 1; i < runs; i++ {
		if !bytes.Equal(out[0], out[i]) {
			t.Fatalf("concurrent run %d produced a different trace (%d vs %d bytes)",
				i, len(out[i]), len(out[0]))
		}
	}
}
