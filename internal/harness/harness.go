// Package harness runs the paper's experiments and formats its tables and
// figures: Figure 1 (normalized execution time), Table 2 (communication),
// Table 3 (DSM actions), Figure 2 (memory system), Table 4 (scalability),
// Table 5 (Water-Nsq optimizations), and the §4.1 cost microbenchmarks.
package harness

import (
	"fmt"
	"io"
	"reflect"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/metrics"
)

// Shape is one cluster configuration of an experiment grid.
type Shape struct {
	Nodes   int
	Threads int
}

// Key identifies one run in a result set.
type Key struct {
	App     string
	Nodes   int
	Threads int
}

// Results caches run statistics per (app, shape).
type Results map[Key]cvm.Stats

// Equal reports whether two result sets cover the same keys with
// identical statistics. The parallel runner must produce results Equal to
// the sequential runner's at every worker count.
func (r Results) Equal(other Results) bool {
	if len(r) != len(other) {
		return false
	}
	for k, v := range r {
		ov, ok := other[k]
		if !ok || !reflect.DeepEqual(v, ov) {
			return false
		}
	}
	return true
}

// AppOrder is the paper's application ordering in figures and tables.
var AppOrder = []string{"barnes", "fft", "ocean", "sor", "swm750", "watersp", "waternsq"}

// ThreadLevels are the per-node threading levels the paper evaluates.
var ThreadLevels = []int{1, 2, 3, 4}

// Cell is one run of the evaluation: an application on Nodes × Threads
// with at most one thing varied. Every study in this package is a table
// of cells handed to RunCells; what varies is a field, not a function.
type Cell struct {
	App     string
	Nodes   int
	Threads int

	// Label names the variation in progress lines and errors ("under
	// SW", "switch-cost=50µs"); the plain paper grid leaves it empty.
	Label string
	// Mut perturbs the cell's default configuration before the cluster
	// is built: faults, engine workers, protocol, -adapt, a tracer or
	// checker. It is called from a pool worker and must not write state
	// another cell reads; a *FaultPlan may be shared (systems copy what
	// they need).
	Mut func(*cvm.Config)
	// Metrics attaches a fresh registry (one per cell: a Registry must
	// not be shared between systems) ahead of Mut, which may tune it.
	Metrics bool
}

func (c Cell) String() string {
	s := fmt.Sprintf("%s %dx%d", c.App, c.Nodes, c.Threads)
	if c.Label != "" {
		s += " " + c.Label
	}
	return s
}

// With returns c with mut chained after its own Mut: how a probe or a
// checker attaches its instrument to a cell that already varies something.
func (c Cell) With(mut func(*cvm.Config)) Cell {
	prev := c.Mut
	c.Mut = func(cfg *cvm.Config) {
		if prev != nil {
			prev(cfg)
		}
		mut(cfg)
	}
	return c
}

// CellResult is what one cell leaves behind. Snapshot is nil unless the
// cell was metered.
type CellResult struct {
	Stats    cvm.Stats
	Checksum float64
	Snapshot *metrics.Snapshot
}

// RunCells is the one runner behind every experiment: each cell is an
// independent deterministic simulation validated against its sequential
// reference, so the cells fan out across workers pool goroutines (≤ 0
// means DefaultParallelism) and come back in cell order — every table
// built from the slice is byte-identical at any worker count. Progress
// lines go to progress when non-nil; the error is the lowest-indexed
// failing cell's, named. A cell that panics (a bug in an application,
// the protocol or an attached instrument) fails the same way: the panic
// is that cell's error and the other workers' cells finish.
func RunCells(cells []Cell, size apps.Size, progress io.Writer, workers int) ([]CellResult, error) {
	sink := newProgressSink(progress)
	defer sink.Close()
	return runJobs(cells, workers, func(c Cell) (res CellResult, err error) {
		defer func() {
			if r := recover(); r != nil {
				res, err = CellResult{}, fmt.Errorf("harness: %v: panic: %v", c, r)
			}
		}()
		sink.Printf("running %v...\n", c)
		cfg := cvm.DefaultConfig(c.Nodes, c.Threads)
		if c.Metrics {
			cfg.Metrics = metrics.NewRegistry()
		}
		if c.Mut != nil {
			c.Mut(&cfg)
		}
		st, sum, err := apps.RunConfig(c.App, size, cfg)
		if err != nil {
			return CellResult{}, fmt.Errorf("harness: %v: %w", c, err)
		}
		res = CellResult{Stats: st, Checksum: sum}
		if c.Metrics {
			res.Snapshot = cfg.Metrics.Snapshot()
		}
		return res, nil
	})
}

// GridCells expands applications × shapes into plain cells, skipping
// shapes an application does not support (Ocean at non-power-of-two
// threads). Callers set Mut or Metrics on the cells to perturb or meter
// the whole grid.
func GridCells(appNames []string, size apps.Size, shapes []Shape) ([]Cell, error) {
	cells := make([]Cell, 0, len(appNames)*len(shapes))
	for _, name := range appNames {
		for _, sh := range shapes {
			app, err := apps.New(name, size)
			if err != nil {
				return nil, err
			}
			if app.SupportsThreads(sh.Threads) {
				cells = append(cells, Cell{App: name, Nodes: sh.Nodes, Threads: sh.Threads})
			}
		}
	}
	return cells, nil
}

// Collect keys a grid's results by (app, shape) and merges the metered
// cells' snapshots in cell order, so the aggregate — and every report
// built from it — is bit-identical at any parallelism. The snapshot is
// nil when no cell was metered.
func Collect(cells []Cell, out []CellResult) (Results, *metrics.Snapshot) {
	res := make(Results, len(cells))
	var agg *metrics.Snapshot
	for i, c := range cells {
		res[Key{c.App, c.Nodes, c.Threads}] = out[i].Stats
		if out[i].Snapshot != nil {
			if agg == nil {
				agg = &metrics.Snapshot{}
			}
			agg.Merge(out[i].Snapshot)
		}
	}
	return res, agg
}

// RunGridParallel runs the plain paper grid: GridCells through RunCells,
// keyed by Collect.
func RunGridParallel(appNames []string, size apps.Size, shapes []Shape, progress io.Writer, workers int) (Results, error) {
	cells, err := GridCells(appNames, size, shapes)
	if err != nil {
		return nil, err
	}
	out, err := RunCells(cells, size, progress, workers)
	if err != nil {
		return nil, err
	}
	res, _ := Collect(cells, out)
	return res, nil
}

// GridShapes builds the cross product of node counts and thread levels.
func GridShapes(nodes []int, threads []int) []Shape {
	shapes := make([]Shape, 0, len(nodes)*len(threads))
	for _, n := range nodes {
		for _, t := range threads {
			shapes = append(shapes, Shape{Nodes: n, Threads: t})
		}
	}
	return shapes
}

// pct formats a relative change as a rounded percentage (Table 4 style).
func pct(now, base int64) string {
	if base == 0 {
		if now == 0 {
			return "0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", 100*float64(now-base)/float64(base))
}
