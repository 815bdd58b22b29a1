package harness

import (
	"bytes"
	"fmt"
	"reflect"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/metrics"
	"cvm/internal/trace"
)

// The determinism guard is the conservative parallel engine's safety
// net: it proves that the windowed engine produces byte-identical
// results at every worker count by running the same workload under a
// sweep of Config.EngineWorkers values and comparing every observable
// artifact — application checksum, run statistics, the serialized
// metrics report, and the exported Chrome trace. Identity must hold
// fault-free and under fault schedules (the chaos suite drives the
// guard with fuzzed plans), because fault rolls consume PRNG state in
// delivery order and would expose any nondeterminism in the commit.

// DeterminismProbe captures the byte-level artifacts of one run whose
// identity across engine worker counts the guard asserts.
type DeterminismProbe struct {
	EngineWorkers int
	Checksum      float64
	Stats         cvm.Stats
	ReportJSON    []byte // serialized metrics report
	Chrome        []byte // exported Chrome trace
	Events        int    // trace events recorded
}

// RunDeterminismProbe runs cell c with a trace recorder and a metrics
// registry attached, on the sequential engine (engineWorkers 0) or the
// windowed engine at that worker count, and collects its artifacts.
// c.Mut carries the variation under test: a fault plan, -adapt.
func RunDeterminismProbe(c Cell, size apps.Size, engineWorkers int) (*DeterminismProbe, error) {
	rec := trace.NewRecorder(c.Nodes, c.Threads, 0)
	c = c.With(func(cfg *cvm.Config) {
		cfg.EngineWorkers = engineWorkers
		cfg.Tracer = rec
	})
	c.Label = fmt.Sprintf("probe workers=%d", engineWorkers)
	c.Metrics = true
	out, err := RunCells([]Cell{c}, size, nil, 1)
	if err != nil {
		return nil, err
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
		Checksum:      out[0].Checksum,
		Stats:         out[0].Stats,
		ReportJSON:    rj.Bytes(),
		Chrome:        cb.Bytes(),
		Events:        rec.Len(),
	}, nil
}

// GuardDeterminism probes cell c at every worker count in workerCounts
// and returns an error describing the first artifact that differs from
// the first count's run; nil means every artifact was byte-identical.
// With -adapt in c.Mut the classifier's decisions and the mode-change
// notices must themselves be functions of the deterministic event
// order. Repeat a count to additionally assert run-to-run identity.
func GuardDeterminism(c Cell, size apps.Size, workerCounts []int) error {
	if len(workerCounts) < 2 {
		return fmt.Errorf("harness: determinism guard needs at least two worker counts, got %v", workerCounts)
	}
	base, err := RunDeterminismProbe(c, size, workerCounts[0])
	if err != nil {
		return err
	}
	for _, w := range workerCounts[1:] {
		p, err := RunDeterminismProbe(c, size, w)
		if err != nil {
			return err
		}
		if err := base.diff(p); err != nil {
			return fmt.Errorf("harness: determinism violation in %v (workers %d vs %d): %w",
				c, base.EngineWorkers, p.EngineWorkers, err)
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
