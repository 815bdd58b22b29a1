package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/netsim"
)

// Table2Row is one row of Table 2: non-overlapped delays, message counts
// per class, and bandwidth.
type Table2Row struct {
	App     string
	Threads int

	BarrierDelayMs float64
	LockDelayMs    float64
	DiffDelayMs    float64
	// Update pushes carry no non-overlapped thread delay of their own
	// (they are asynchronous), so the delay column stays zero; it exists
	// so every message class has the same Table 2 shape.
	UpdateDelayMs float64

	BarrierMsgs int64
	LockMsgs    int64
	DiffMsgs    int64
	UpdateMsgs  int64
	TotalMsgs   int64
	BWKBytes    int64
}

// Table2 builds the communication-performance table at the given node
// count (the paper uses 8 processors).
func Table2(res Results, appNames []string, nodes int, threads []int) []Table2Row {
	var rows []Table2Row
	for _, name := range appNames {
		for _, t := range threads {
			st, ok := res[Key{name, nodes, t}]
			if !ok {
				continue
			}
			rows = append(rows, Table2Row{
				App:            name,
				Threads:        t,
				BarrierDelayMs: st.Total.BarrierWait.Milliseconds(),
				LockDelayMs:    st.Total.LockWait.Milliseconds(),
				DiffDelayMs:    st.Total.FaultWait.Milliseconds(),
				BarrierMsgs:    st.Net.Msgs[netsim.ClassBarrier],
				LockMsgs:       st.Net.Msgs[netsim.ClassLock],
				DiffMsgs:       st.Net.Msgs[netsim.ClassDiff],
				UpdateMsgs:     st.Net.Msgs[netsim.ClassUpdate],
				TotalMsgs:      st.Net.TotalMsgs(),
				BWKBytes:       st.Net.TotalBytes() / 1024,
			})
		}
	}
	return rows
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer, res Results, appNames []string, nodes int, threads []int) {
	fmt.Fprintf(w, "Table 2: Communication Performance (%d processors)\n", nodes)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tT\tbarrier ms\tlock ms\tdiff ms\tbarrier msgs\tlock msgs\tdiff msgs\ttotal msgs\tBW KB\t")
	for _, r := range Table2(res, appNames, nodes, threads) {
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%d\t%d\t%d\t%d\t%d\t\n",
			r.App, r.Threads, r.BarrierDelayMs, r.LockDelayMs, r.DiffDelayMs,
			r.BarrierMsgs, r.LockMsgs, r.DiffMsgs, r.TotalMsgs, r.BWKBytes)
	}
	tw.Flush()
}

// Table3Row is one row of Table 3: the low-level DSM action counters.
type Table3Row struct {
	App     string
	Threads int

	ThreadSwitches    int64
	RemoteFaults      int64
	RemoteLocks       int64
	OutstandingFaults int64
	OutstandingLocks  int64
	BlockSamePage     int64
	BlockSameLock     int64
	DiffsCreated      int64
	DiffsUsed         int64
}

// Table3 builds the DSM-actions table at the given node count.
func Table3(res Results, appNames []string, nodes int, threads []int) []Table3Row {
	var rows []Table3Row
	for _, name := range appNames {
		for _, t := range threads {
			st, ok := res[Key{name, nodes, t}]
			if !ok {
				continue
			}
			rows = append(rows, table3Row(name, t, st))
		}
	}
	return rows
}

func table3Row(name string, t int, st cvm.Stats) Table3Row {
	return Table3Row{
		App:               name,
		Threads:           t,
		ThreadSwitches:    st.Total.ThreadSwitches,
		RemoteFaults:      st.Total.RemoteFaults,
		RemoteLocks:       st.Total.RemoteLocks,
		OutstandingFaults: st.Total.OutstandingFaults,
		OutstandingLocks:  st.Total.OutstandingLocks,
		BlockSamePage:     st.Total.BlockSamePage,
		BlockSameLock:     st.Total.BlockSameLock,
		DiffsCreated:      st.Total.DiffsCreated,
		DiffsUsed:         st.Total.DiffsUsed,
	}
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, res Results, appNames []string, nodes int, threads []int) {
	fmt.Fprintf(w, "Table 3: DSM Actions (%d processors)\n", nodes)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tT\tswitches\trem faults\trem locks\tout faults\tout locks\tblk page\tblk lock\tdiffs made\tdiffs used\t")
	for _, r := range Table3(res, appNames, nodes, threads) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.App, r.Threads, r.ThreadSwitches, r.RemoteFaults, r.RemoteLocks,
			r.OutstandingFaults, r.OutstandingLocks, r.BlockSamePage,
			r.BlockSameLock, r.DiffsCreated, r.DiffsUsed)
	}
	tw.Flush()
}

// Table4Row is one row of Table 4: relative change of communication
// quantities versus the single-threaded run at the same node count.
type Table4Row struct {
	App     string
	Nodes   int
	Threads int

	TotalMsgs    string
	BWKBytes     string
	RemoteFaults string
	DiffsCreated string
}

// Table4 builds the scalability table: Δ% at T versus T=1 for each node
// count. The paper reports 4, 8 and 16 processors with T ∈ {2, 4}.
func Table4(res Results, appNames []string, nodes []int, threads []int) []Table4Row {
	var rows []Table4Row
	for _, name := range appNames {
		for _, p := range nodes {
			base, ok := res[Key{name, p, 1}]
			if !ok {
				continue
			}
			for _, t := range threads {
				st, ok := res[Key{name, p, t}]
				if !ok {
					continue
				}
				rows = append(rows, Table4Row{
					App:          name,
					Nodes:        p,
					Threads:      t,
					TotalMsgs:    pct(st.Net.TotalMsgs(), base.Net.TotalMsgs()),
					BWKBytes:     pct(st.Net.TotalBytes(), base.Net.TotalBytes()),
					RemoteFaults: pct(st.Total.RemoteFaults, base.Total.RemoteFaults),
					DiffsCreated: pct(st.Total.DiffsCreated, base.Total.DiffsCreated),
				})
			}
		}
	}
	return rows
}

// WriteTable4 renders Table 4.
func WriteTable4(w io.Writer, res Results, appNames []string, nodes []int, threads []int) {
	fmt.Fprintln(w, "Table 4: Scalability (change vs single-threaded at same node count)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tP\tT\ttotal msgs\tBW\tremote faults\tdiffs created\t")
	for _, r := range Table4(res, appNames, nodes, threads) {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t\n",
			r.App, r.Nodes, r.Threads, r.TotalMsgs, r.BWKBytes, r.RemoteFaults,
			r.DiffsCreated)
	}
	tw.Flush()
}

// Table5Row is one row of the Water-Nsq case study: variant × threading
// level, with speedup versus the variant's own single-threaded run.
type Table5Row struct {
	Variant string
	Threads int

	SpeedupPct float64
	Table3Row
}

// Table5 runs the Water-Nsq source variants at each threading level —
// the cell's application is the thing varied — and builds the
// optimization case-study table, with speedups versus each variant's
// own T=1 run.
func Table5(size apps.Size, nodes int, threads []int, progress io.Writer, workers int) ([]Table5Row, error) {
	variants := []string{"waternsq-noopts", "waternsq-localbarrier", "waternsq"}
	res, err := RunGridParallel(variants, size, GridShapes([]int{nodes}, threads), progress, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, 0, len(variants)*len(threads))
	for _, variant := range variants {
		base := res[Key{variant, nodes, 1}].Wall
		for _, t := range threads {
			st := res[Key{variant, nodes, t}]
			speedup := 0.0
			if st.Wall > 0 && base > 0 {
				speedup = (float64(base)/float64(st.Wall) - 1) * 100
			}
			rows = append(rows, Table5Row{
				Variant:    variant,
				Threads:    t,
				SpeedupPct: speedup,
				Table3Row:  table3Row(variant, t, st),
			})
		}
	}
	return rows, nil
}

// WriteTable5 renders Table 5.
func WriteTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: Water-Nsq Optimizations (8 processors)")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "variant\tT\tspdup\tswitches\trem faults\trem locks\tout faults\tout locks\tblk page\tblk lock\tdiffs made\tdiffs used\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f%%\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.Variant, r.Threads, r.SpeedupPct, r.ThreadSwitches, r.RemoteFaults,
			r.RemoteLocks, r.OutstandingFaults, r.OutstandingLocks,
			r.BlockSamePage, r.BlockSameLock, r.DiffsCreated, r.DiffsUsed)
	}
	tw.Flush()
}
