package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/sim"
)

// AblationRow records the multi-threading benefit of one application
// under one modified cluster parameter: speedup of T=4 over T=1 at 8
// nodes.
type AblationRow struct {
	Param      string
	Value      string
	App        string
	WallT1     cvm.Time
	WallT4     cvm.Time
	SpeedupPct float64
}

// ablationPoint is one value of the swept cluster parameter.
type ablationPoint struct {
	label string
	mut   func(*cvm.Config)
}

// AblationSwitchCost sweeps the thread-switch cost. The paper lists
// switch cost as limiting factor #5: "efficient thread switching is
// crucial to getting good coverage of remote latency". The benefit should
// erode as switches grow expensive.
func AblationSwitchCost(appName string, size apps.Size) ([]AblationRow, error) {
	var points []ablationPoint
	for _, c := range []sim.Time{
		8 * sim.Microsecond, // the paper's measured cost
		50 * sim.Microsecond,
		200 * sim.Microsecond,
		1000 * sim.Microsecond,
	} {
		points = append(points, ablationPoint{fmt.Sprint(c), func(cfg *cvm.Config) { cfg.SwitchCost = c }})
	}
	return ablate(appName, size, "switch-cost", points)
}

// AblationWireLatency sweeps the interconnect wire latency. The paper's
// premise is that multi-threading pays in proportion to remote latency;
// the benefit should grow as the wire slows.
func AblationWireLatency(appName string, size apps.Size) ([]AblationRow, error) {
	var points []ablationPoint
	for _, f := range []struct {
		label    string
		mul, div sim.Time
	}{
		{"0.5x", 1, 2},
		{"1x (paper)", 1, 1},
		{"2x", 2, 1},
		{"4x", 4, 1},
	} {
		points = append(points, ablationPoint{f.label, func(cfg *cvm.Config) {
			cfg.Net.WireLatency = cfg.Net.WireLatency * f.mul / f.div
			cfg.Net.SendOverhead = cfg.Net.SendOverhead * f.mul / f.div
			cfg.Net.RecvOverhead = cfg.Net.RecvOverhead * f.mul / f.div
		}})
	}
	return ablate(appName, size, "wire-latency", points)
}

// ablate runs appName at 8 nodes with T=1 and T=4 under each point of
// the swept parameter and reports the multi-threading speedups.
func ablate(appName string, size apps.Size, param string, points []ablationPoint) ([]AblationRow, error) {
	var cells []Cell
	for _, p := range points {
		for _, t := range []int{1, 4} {
			cells = append(cells, Cell{App: appName, Nodes: 8, Threads: t,
				Label: param + "=" + p.label, Mut: p.mut})
		}
	}
	out, err := RunCells(cells, size, nil, 0)
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(points))
	for i, p := range points {
		t1, t4 := out[2*i].Stats.Wall, out[2*i+1].Stats.Wall
		rows[i] = AblationRow{Param: param, Value: p.label, App: appName,
			WallT1: t1, WallT4: t4, SpeedupPct: 100 * (float64(t1)/float64(t4) - 1)}
	}
	return rows, nil
}

// WriteAblation renders ablation rows.
func WriteAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, "Ablation:", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "param\tvalue\tapp\twall T=1\twall T=4\tMT speedup\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%v\t%+.1f%%\t\n",
			r.Param, r.Value, r.App, r.WallT1, r.WallT4, r.SpeedupPct)
	}
	tw.Flush()
}

// AblationScheduler pairs appName at 8 nodes × 4 threads under the FIFO
// run queue (CVM's, and the paper's factor #3 complaint; Base) with the
// LIFO memory-conscious discipline the paper proposes as future work
// (Variant).
func AblationScheduler(appName string, size apps.Size) (Pair, error) {
	pairs, err := comparePairs([]string{appName}, size, 8, 4, "FIFO", "LIFO",
		func(cfg *cvm.Config) { cfg.LIFOScheduler = true }, nil, 0)
	if err != nil {
		return Pair{}, err
	}
	return pairs[0], nil
}

// WriteSchedulerAblation renders the scheduler comparison: cache
// behaviour and time under each discipline.
func WriteSchedulerAblation(w io.Writer, p Pair) {
	fmt.Fprintln(w, "Ablation: FIFO vs LIFO thread scheduling (paper §5, factor #3)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tqueue\twall\tD-cache misses\t")
	for _, q := range []struct {
		name string
		st   *cvm.Stats
	}{{"FIFO", &p.Base}, {"LIFO", &p.Variant}} {
		fmt.Fprintf(tw, "%s\t%s\t%v\t%d\t\n", p.App, q.name, q.st.Wall, q.st.MemTotal.DCacheMisses)
	}
	tw.Flush()
}
