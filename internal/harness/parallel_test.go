package harness

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/trace"
)

// TestRunGridParallelDeterminism is the determinism guard: a parallel grid
// must produce byte-identical Results to the sequential one — each cell's
// simulation is single-threaded and deterministic, parallelism only
// reorders which cell runs when. If this fails, a table changed silently.
func TestRunGridParallelDeterminism(t *testing.T) {
	appList := []string{"sor", "waternsq"}
	shapes := GridShapes([]int{2, 4}, []int{1, 2})

	seq, err := RunGridParallel(appList, apps.SizeTest, shapes, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGridParallel(appList, apps.SizeTest, shapes, nil, 4)
	if err != nil {
		t.Fatal(err)
	}

	if !seq.Equal(par) {
		t.Fatal("parallel Results differ from sequential")
	}
	// Equal must also be sensitive, not vacuously true.
	for k := range par {
		mutated := make(Results, len(par))
		for k2, v := range par {
			mutated[k2] = v
		}
		st := mutated[k]
		st.Total.ThreadSwitches++
		mutated[k] = st
		if seq.Equal(mutated) {
			t.Fatal("Results.Equal failed to detect a mutated cell")
		}
		break
	}
	for k, sv := range seq {
		pv, ok := par[k]
		if !ok {
			t.Fatalf("parallel grid missing %v", k)
		}
		if sv.Wall != pv.Wall || sv.Total != pv.Total {
			t.Errorf("%v: sequential and parallel stats differ", k)
		}
	}
}

// TestRunGridParallelProgress checks the single-writer progress sink: all
// lines arrive intact (no interleaving tears) regardless of worker count.
func TestRunGridParallelProgress(t *testing.T) {
	var buf bytes.Buffer
	_, err := RunGridParallel([]string{"sor"}, apps.SizeTest,
		GridShapes([]int{2, 4}, []int{1, 2}), &buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	sort.Strings(lines)
	want := []string{
		"running sor 2x1...",
		"running sor 2x2...",
		"running sor 4x1...",
		"running sor 4x2...",
	}
	if len(lines) != len(want) {
		t.Fatalf("progress lines = %q, want %d lines", lines, len(want))
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

// TestRunJobsOrder checks that results come back in job order and that the
// first (lowest-indexed) failure wins, at several worker counts.
func TestRunJobsOrder(t *testing.T) {
	jobs := make([]int, 50)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{1, 3, 16, 100} {
		got, err := runJobs(jobs, workers, func(j int) (int, error) { return j * j, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}

		_, err = runJobs(jobs, workers, func(j int) (int, error) {
			if j == 7 || j == 31 {
				return 0, fmt.Errorf("job %d failed", j)
			}
			return j, nil
		})
		if err == nil || !strings.Contains(err.Error(), "job 7") {
			t.Errorf("workers=%d: err = %v, want first failure (job 7)", workers, err)
		}
	}
}

// TestRunJobsEmpty checks the degenerate cases.
func TestRunJobsEmpty(t *testing.T) {
	got, err := runJobs(nil, 4, func(j int) (int, error) { return 0, errors.New("never called") })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty jobs: got %v, %v", got, err)
	}
}

func TestClampWorkers(t *testing.T) {
	tests := []struct {
		workers, jobs, wantMin, wantMax int
	}{
		{1, 10, 1, 1},
		{4, 2, 2, 2},  // never more workers than jobs
		{-1, 5, 1, 5}, // ≤ 0 means DefaultParallelism, capped by jobs
		{0, 0, 1, 1},  // zero jobs still yields a valid count
		{16, 16, 16, 16},
	}
	for _, tt := range tests {
		got := clampWorkers(tt.workers, tt.jobs)
		if got < tt.wantMin || got > tt.wantMax {
			t.Errorf("clampWorkers(%d, %d) = %d, want in [%d, %d]",
				tt.workers, tt.jobs, got, tt.wantMin, tt.wantMax)
		}
	}
}

// TestGridShapes covers the cross-product builder directly.
func TestGridShapes(t *testing.T) {
	got := GridShapes([]int{4, 8}, []int{1, 2})
	want := []Shape{{4, 1}, {4, 2}, {8, 1}, {8, 2}}
	if len(got) != len(want) {
		t.Fatalf("shapes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shape[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if s := GridShapes(nil, []int{1, 2}); len(s) != 0 {
		t.Errorf("empty nodes: %v, want empty", s)
	}
	if s := GridShapes([]int{4}, nil); len(s) != 0 {
		t.Errorf("empty threads: %v, want empty", s)
	}
}

// panicTracer is an instrument with a bug: it panics on its first event.
type panicTracer struct{}

func (panicTracer) Emit(trace.Event) { panic("tracer boom") }

// TestRunCellsPanicIsTheCellsError: a cell that panics inside the tracer
// its Mut planted — on a thread of the simulated cluster under the
// sequential engine, at the window commit that releases buffered events
// under the windowed one — is a failed cell like any other: RunCells
// returns an error naming the cell (and the thread, where there is one),
// the pool's other cells finish, and the failed run's parked threads are
// unwound, at any worker count.
func TestRunCellsPanicIsTheCellsError(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, engineWorkers := range []int{0, 2} {
		for _, workers := range []int{1, 4} {
			finished := 0
			var mu sync.Mutex
			good := func(*cvm.Config) { mu.Lock(); finished++; mu.Unlock() }
			cells := []Cell{
				{App: "sor", Nodes: 2, Threads: 2, Mut: good},
				{App: "sor", Nodes: 4, Threads: 2, Label: "with a broken tracer", Mut: func(cfg *cvm.Config) {
					cfg.EngineWorkers = engineWorkers
					cfg.Tracer = panicTracer{}
				}},
				{App: "waternsq", Nodes: 2, Threads: 1, Mut: good},
			}
			_, err := RunCells(cells, apps.SizeTest, nil, workers)
			if err == nil {
				t.Fatalf("engine-workers=%d workers=%d: RunCells succeeded with a panicking cell", engineWorkers, workers)
			}
			wants := []string{"sor 4x2 with a broken tracer", "panic", "tracer boom"}
			if engineWorkers == 0 {
				wants = append(wants, `task "n1t0" panicked`, "(*Thread).Barrier")
			}
			for _, want := range wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("engine-workers=%d workers=%d: error does not mention %q:\n%v", engineWorkers, workers, want, err)
				}
			}
			if workers > 1 && finished != 2 {
				t.Errorf("engine-workers=%d workers=%d: %d of the 2 sound cells ran", engineWorkers, workers, finished)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines = %d, want <= %d (a failed cell left threads behind)", got, before)
	}
}
