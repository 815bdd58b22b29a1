package trace_test

import (
	"bytes"
	"flag"
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
	if _, _, err := apps.RunConfig("waternsq", apps.SizeTest, cfg, 0); err != nil {
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

// TestOrderMatchesReferenceOnRuns holds the repair-and-merge order to
// the reference sort on recorded runs: waternsq 8x4, eight rings of four
// threads, and scaleout 64x1, where deliveries recorded at their send
// displace a ring's events the most.
func TestOrderMatchesReferenceOnRuns(t *testing.T) {
	for _, c := range []struct {
		app            string
		nodes, threads int
	}{{"waternsq", 8, 4}, {"scaleout", 64, 1}} {
		rec := trace.NewRecorder(c.nodes, c.threads, 0)
		cfg := cvm.DefaultConfig(c.nodes, c.threads)
		cfg.Tracer = rec
		if _, _, err := apps.RunConfig(c.app, apps.SizeTest, cfg, 0); err != nil {
			t.Fatal(err)
		}
		if got, want := rec.Events(), trace.EventsRef(rec); !slices.Equal(got, want) {
			t.Errorf("%s %dx%d: Events() differs from the reference sort over %d events", c.app, c.nodes, c.threads, len(want))
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

// TestCalibrationTwoHopLock reproduces the paper's §4.1 2-hop lock cost
// (937 µs) from trace events alone: two nodes alternate uncontended
// acquires of a manager-resident lock, separated by barriers.
func TestCalibrationTwoHopLock(t *testing.T) {
	rec := trace.NewRecorder(2, 1, 0)
	cfg := cvm.DefaultConfig(2, 1)
	cfg.Tracer = rec
	cluster, err := cvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.MustAlloc("pad", microPage)
	_, err = cluster.Run(func(w cvm.Worker) {
		for i := 0; i < 9; i++ {
			if i%2 == w.NodeID() {
				w.Lock(0)
				w.Unlock(0)
			}
			w.Barrier(10 + i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.AnalyzeRecorder(rec)
	// The very first acquire hits the manager's cached token (local);
	// every later one needs a remote 2-hop round. None are forwarded.
	if rep.Lock3Hop.Count != 0 {
		t.Fatalf("unexpected 3-hop acquires: %+v", rep.Lock3Hop)
	}
	if rep.Lock2Hop.Count < 7 {
		t.Fatalf("2-hop count = %d, want ≥7", rep.Lock2Hop.Count)
	}
	assertNear(t, "2-hop lock p50", rep.Lock2Hop.P50, 937*cvm.Microsecond, 40*cvm.Microsecond)
}

// TestCalibrationThreeHopLock reproduces the §4.1 3-hop cost (1382 µs):
// the token bounces between two non-manager nodes, so every acquire is
// forwarded by the idle manager.
func TestCalibrationThreeHopLock(t *testing.T) {
	rec := trace.NewRecorder(3, 1, 0)
	cfg := cvm.DefaultConfig(3, 1)
	cfg.Tracer = rec
	cluster, err := cvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cluster.MustAlloc("pad", microPage)
	_, err = cluster.Run(func(w cvm.Worker) {
		for i := 0; i < 9; i++ {
			if w.NodeID() == 1+i%2 {
				w.Lock(0)
				w.Unlock(0)
			}
			w.Barrier(10 + i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.AnalyzeRecorder(rec)
	// Only the first acquire (token still at the manager) is 2-hop.
	if rep.Lock2Hop.Count != 1 {
		t.Fatalf("2-hop count = %d, want 1: %+v", rep.Lock2Hop.Count, rep.Lock2Hop)
	}
	if rep.Lock3Hop.Count < 7 {
		t.Fatalf("3-hop count = %d, want ≥7", rep.Lock3Hop.Count)
	}
	assertNear(t, "3-hop lock p50", rep.Lock3Hop.P50, 1382*cvm.Microsecond, 80*cvm.Microsecond)
}

// TestCalibrationRemoteFault reproduces the §4.1 remote page fault cost
// (~1100 µs): node 0 writes one word per interval, node 1 faults the
// page back in with a single small diff.
func TestCalibrationRemoteFault(t *testing.T) {
	rec := trace.NewRecorder(2, 1, 0)
	cfg := cvm.DefaultConfig(2, 1)
	cfg.Tracer = rec
	cluster, err := cvm.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := cluster.MustAlloc("page", microPage)
	_, err = cluster.Run(func(w cvm.Worker) {
		for i := 0; i < 8; i++ {
			if w.NodeID() == 0 {
				w.WriteF64(base, float64(i))
			}
			w.Barrier(10 + 2*i)
			if w.NodeID() == 1 {
				_ = w.ReadF64(base)
			}
			w.Barrier(11 + 2*i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := trace.AnalyzeRecorder(rec)
	if rep.RemoteFault.Count < 8 {
		t.Fatalf("remote fault count = %d, want ≥8", rep.RemoteFault.Count)
	}
	assertNear(t, "remote fault p50", rep.RemoteFault.P50, 1100*cvm.Microsecond, 150*cvm.Microsecond)
}

func assertNear(t *testing.T, name string, got, want, tol cvm.Time) {
	t.Helper()
	d := got - want
	if d < 0 {
		d = -d
	}
	if d > tol {
		t.Errorf("%s = %v, want %v ± %v", name, got, want, tol)
	}
}
