package harness

import (
	"bytes"
	"fmt"
	"reflect"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/core"
	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// The determinism guard is the engines' safety net: it proves that the
// windowed engine produces byte-identical results at every worker count,
// and the sequential engine at every run-ahead bound, by running the same
// workload under a sweep of Config.EngineWorkers values and bounds and
// comparing every observable artifact — application checksum, run
// statistics, the serialized metrics report, and the exported Chrome
// trace. Identity must hold fault-free and under fault schedules (the
// chaos suite drives the guard with fuzzed plans), because fault rolls
// consume PRNG state in delivery order and would expose any
// nondeterminism in the commit or in the order of visible actions.

// DeterminismProbe captures the byte-level artifacts of one run whose
// identity across engine worker counts and run-ahead bounds the guard
// asserts.
type DeterminismProbe struct {
	EngineWorkers int
	RunAhead      sim.Time // negative: the interconnect's lookahead
	Checksum      float64
	Stats         cvm.Stats
	ReportJSON    []byte // serialized metrics report
	Chrome        []byte // exported Chrome trace
	Events        int    // trace events recorded
}

// RunDeterminismProbe runs cell c with a trace recorder and a metrics
// registry attached, on the sequential engine (engineWorkers 0) with the
// given run-ahead bound (negative: the default, core.SetRunAhead) or the
// windowed engine at that worker count, and collects its artifacts.
// c.Mut carries the variation under test, such as a fault plan. It runs
// c bare as well and fails unless the checksum and statistics match: in
// the sequential engine every trace event waits its turn (sim.Task.Sync),
// so an action that should and does not shows up only in the bare run.
func RunDeterminismProbe(c Cell, size apps.Size, engineWorkers int, runAhead sim.Time) (*DeterminismProbe, error) {
	rec := trace.NewRecorder(c.Nodes, c.Threads, 0)
	label := fmt.Sprintf("probe workers=%d run-ahead=%v", engineWorkers, runAhead)
	bare := c.With(func(cfg *cvm.Config) { cfg.EngineWorkers = engineWorkers })
	bare.Label = label + " bare"
	c = c.With(func(cfg *cvm.Config) {
		cfg.EngineWorkers = engineWorkers
		cfg.Tracer = rec
	})
	c.Label = label
	c.Metrics = true
	defer core.SetRunAhead(runAhead)()
	out, err := RunCells([]Cell{c, bare}, size, nil, 1)
	if err != nil {
		return nil, err
	}
	if out[0].Checksum != out[1].Checksum || !reflect.DeepEqual(out[0].Stats, out[1].Stats) {
		return nil, fmt.Errorf("harness: %v (workers %d run-ahead %v) observed and bare differ: checksum %x vs %x, %+v vs %+v",
			c, engineWorkers, runAhead, out[0].Checksum, out[1].Checksum, out[0].Stats.Total, out[1].Stats.Total)
	}
	meta := metrics.Meta{App: c.App, Config: fmt.Sprintf("%dx%d", c.Nodes, c.Threads)}
	var rj, cb bytes.Buffer
	if err := metrics.NewReport(meta, out[0].Snapshot, 10).WriteJSON(&rj); err != nil {
		return nil, err
	}
	if err := trace.WriteChrome(&cb, rec); err != nil {
		return nil, err
	}
	return &DeterminismProbe{
		EngineWorkers: engineWorkers,
		RunAhead:      runAhead,
		Checksum:      out[0].Checksum,
		Stats:         out[0].Stats,
		ReportJSON:    rj.Bytes(),
		Chrome:        cb.Bytes(),
		Events:        rec.Len(),
	}, nil
}

// GuardDeterminism probes cell c at every worker count in workerCounts
// crossed with every run-ahead bound in runAheads (nil: the default
// bound alone; a bound matters only at worker count 0) and returns an
// error describing the first artifact that differs from the first
// probe's; nil means every artifact was byte-identical. Repeat a
// count to additionally assert run-to-run identity.
func GuardDeterminism(c Cell, size apps.Size, workerCounts []int, runAheads []sim.Time) error {
	if len(runAheads) == 0 {
		runAheads = []sim.Time{-1}
	}
	if len(workerCounts)*len(runAheads) < 2 {
		return fmt.Errorf("harness: determinism guard needs at least two probes, got workers %v and run-ahead bounds %v",
			workerCounts, runAheads)
	}
	var base *DeterminismProbe
	for _, w := range workerCounts {
		for _, b := range runAheads {
			p, err := RunDeterminismProbe(c, size, w, b)
			if err != nil {
				return err
			}
			if base == nil {
				base = p
				continue
			}
			if err := base.diff(p); err != nil {
				return fmt.Errorf("harness: determinism violation in %v (workers %d run-ahead %v vs workers %d run-ahead %v): %w",
					c, base.EngineWorkers, base.RunAhead, p.EngineWorkers, p.RunAhead, err)
			}
		}
	}
	return nil
}

// diff reports the first artifact in which other differs from p.
func (p *DeterminismProbe) diff(other *DeterminismProbe) error {
	if p.Checksum != other.Checksum {
		return fmt.Errorf("checksum %x != %x", p.Checksum, other.Checksum)
	}
	if !reflect.DeepEqual(p.Stats, other.Stats) {
		return fmt.Errorf("run statistics differ: %+v != %+v", p.Stats.Total, other.Stats.Total)
	}
	if !bytes.Equal(p.ReportJSON, other.ReportJSON) {
		return fmt.Errorf("metrics report bytes differ (%d vs %d bytes at first divergence %d)",
			len(p.ReportJSON), len(other.ReportJSON), firstDiff(p.ReportJSON, other.ReportJSON))
	}
	if p.Events != other.Events {
		return fmt.Errorf("trace event count %d != %d", p.Events, other.Events)
	}
	if !bytes.Equal(p.Chrome, other.Chrome) {
		return fmt.Errorf("chrome trace bytes differ (%d vs %d bytes at first divergence %d)",
			len(p.Chrome), len(other.Chrome), firstDiff(p.Chrome, other.Chrome))
	}
	return nil
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
