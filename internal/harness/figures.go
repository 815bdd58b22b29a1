package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cvm"
)

// Fig1Row is one bar of Figure 1: execution time at (app, nodes, threads)
// normalized to the single-threaded run at the same node count, decomposed
// into user / barrier / fault / lock components.
type Fig1Row struct {
	App     string
	Nodes   int
	Threads int

	Norm    float64 // total normalized execution time (1.0 at T=1)
	User    float64 // components; they sum to ≈ Norm
	Barrier float64
	Fault   float64
	Lock    float64
}

// Figure1 computes the normalized execution-time bars from a result grid.
func Figure1(res Results, appNames []string, nodes, threads []int) []Fig1Row {
	var rows []Fig1Row
	for _, name := range appNames {
		for _, p := range nodes {
			base, ok := res[Key{name, p, 1}]
			if !ok {
				continue
			}
			baseTotal := componentsTotal(base)
			for _, t := range threads {
				st, ok := res[Key{name, p, t}]
				if !ok {
					continue
				}
				rows = append(rows, Fig1Row{
					App:     name,
					Nodes:   p,
					Threads: t,
					Norm:    float64(componentsTotal(st)) / float64(baseTotal),
					User:    float64(st.Total.UserTime) / float64(baseTotal),
					Barrier: float64(st.Total.BarrierWait) / float64(baseTotal),
					Fault:   float64(st.Total.FaultWait) / float64(baseTotal),
					Lock:    float64(st.Total.LockWait) / float64(baseTotal),
				})
			}
		}
	}
	return rows
}

func componentsTotal(st cvm.Stats) cvm.Time {
	return st.Total.UserTime + st.Total.BarrierWait + st.Total.FaultWait + st.Total.LockWait
}

// WriteFigure1 renders the Figure 1 data as a table with a text bar chart.
func WriteFigure1(w io.Writer, res Results, appNames []string, nodes, threads []int) {
	fmt.Fprintln(w, "Figure 1: Normalized Execution Time (user/barrier/fault/lock)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tP/T\tnorm\tuser\tbarrier\tfault\tlock\t")
	for _, r := range Figure1(res, appNames, nodes, threads) {
		fmt.Fprintf(tw, "%s\t%d/%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%s\n",
			r.App, r.Nodes, r.Threads, r.Norm, r.User, r.Barrier, r.Fault, r.Lock,
			bar(r.Norm))
	}
	tw.Flush()
}

// bar renders a 40-column text bar for a normalized value.
func bar(v float64) string {
	n := int(v * 30)
	if n > 60 {
		n = 60
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// Fig2Row is one series point of Figure 2: memory-system misses at a
// threading level (in raw counts; the paper reports millions).
type Fig2Row struct {
	App     string
	Threads int

	DCacheMisses int64
	DTLBMisses   int64
}

// Figure2 extracts memory-system miss counts (at the paper's 4-node SP-2
// setup, the node count used for Figure 2's sweeps is fixed by caller).
func Figure2(res Results, appNames []string, nodes int, threads []int) []Fig2Row {
	var rows []Fig2Row
	for _, name := range appNames {
		for _, t := range threads {
			st, ok := res[Key{name, nodes, t}]
			if !ok {
				continue
			}
			rows = append(rows, Fig2Row{
				App:          name,
				Threads:      t,
				DCacheMisses: st.MemTotal.DCacheMisses,
				DTLBMisses:   st.MemTotal.DTLBMisses,
			})
		}
	}
	return rows
}

// WriteFigure2 renders Figure 2's D-cache and D-TLB miss counts. The
// paper reports millions of misses at full input scale; reduced inputs
// shrink the absolute counts, so raw values are shown — the claim under
// test is the trend across threading levels. The paper's I-TLB series is
// not reproduced: a simulation has no instruction stream.
func WriteFigure2(w io.Writer, res Results, appNames []string, nodes int, threads []int) {
	fmt.Fprintln(w, "Figure 2: Effect on Memory System When Increasing Number of Threads")
	fmt.Fprintln(w, "(raw miss counts; the paper's full-scale inputs yield millions)")
	rows := Figure2(res, appNames, nodes, threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tT\tD-cache\tD-TLB\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t\n", r.App, r.Threads, r.DCacheMisses, r.DTLBMisses)
	}
	tw.Flush()
}
