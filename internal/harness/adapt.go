package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cvm"
	"cvm/internal/apps"
)

// AdaptiveRow compares one application's baseline run (plain LRC) with
// its adaptive run (per-page mode switching). Delays are the Figure-1
// non-overlapped components whose dominant term the adaptive protocol
// targets.
type AdaptiveRow struct {
	App string

	BaseWall  cvm.Time
	AdaptWall cvm.Time

	BaseFaultWait  cvm.Time
	AdaptFaultWait cvm.Time

	BaseBarrierWait  cvm.Time
	AdaptBarrierWait cvm.Time

	BaseLockWait  cvm.Time
	AdaptLockWait cvm.Time

	BaseMsgs  int64
	AdaptMsgs int64

	BaseKBytes  int64
	AdaptKBytes int64

	// Adaptation activity, by mechanism: notices applied, fault ranges
	// update mode served from pushed chains, and exclusive mode's two
	// costs — windows a foreign access closed and the whole-page fetches
	// that followed.
	ModeChanges      int64
	UpdateHits       int64
	ExclWindowCloses int64
	FullFetches      int64
}

// DominantCost names the largest baseline Figure-1 remote-cost component
// (fault, barrier or lock wait) and reports its baseline and adaptive
// values. That component is the paper's per-app bottleneck; the adaptive
// protocol's win condition is reducing it.
func (r *AdaptiveRow) DominantCost() (name string, base, adapted cvm.Time) {
	name, base, adapted = "fault", r.BaseFaultWait, r.AdaptFaultWait
	if r.BaseBarrierWait > base {
		name, base, adapted = "barrier", r.BaseBarrierWait, r.AdaptBarrierWait
	}
	if r.BaseLockWait > base {
		name, base, adapted = "lock", r.BaseLockWait, r.AdaptLockWait
	}
	return name, base, adapted
}

// CompareAdaptive runs every application with and without the adaptive
// protocol at the given shape. Every run still validates against its
// sequential reference, so the adaptive protocol's coherence is
// exercised end to end. The app × variant runs fan out over the worker
// pool and merge into rows in application order.
func CompareAdaptive(appNames []string, size apps.Size, nodes, threads int, progress io.Writer, workers int) ([]AdaptiveRow, error) {
	type job struct {
		name  string
		adapt bool
	}
	var jobs []job
	for _, name := range appNames {
		app, err := apps.New(name, size)
		if err != nil {
			return nil, err
		}
		if !app.SupportsThreads(threads) {
			continue
		}
		for _, adapt := range []bool{false, true} {
			jobs = append(jobs, job{name, adapt})
		}
	}

	sink := newProgressSink(progress)
	defer sink.Close()
	stats, err := runJobs(jobs, workers, func(j job) (cvm.Stats, error) {
		variant := "baseline"
		if j.adapt {
			variant = "adaptive"
		}
		sink.Printf("running %s (%s)...\n", j.name, variant)
		cfg := cvm.DefaultConfig(nodes, threads)
		cfg.Adapt = j.adapt
		st, err := apps.RunConfig(j.name, size, cfg)
		if err != nil {
			return cvm.Stats{}, fmt.Errorf("harness: %s (%s): %w", j.name, variant, err)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []AdaptiveRow
	for i, j := range jobs {
		st := stats[i]
		if len(rows) == 0 || rows[len(rows)-1].App != j.name {
			rows = append(rows, AdaptiveRow{App: j.name})
		}
		row := &rows[len(rows)-1]
		if j.adapt {
			row.AdaptWall = st.Wall
			row.AdaptFaultWait = st.Total.FaultWait
			row.AdaptBarrierWait = st.Total.BarrierWait
			row.AdaptLockWait = st.Total.LockWait
			row.AdaptMsgs = st.Net.TotalMsgs()
			row.AdaptKBytes = st.Net.TotalBytes() / 1024
			row.ModeChanges = st.Total.ModeChanges
			row.UpdateHits = st.Total.UpdateHits
			row.ExclWindowCloses = st.Total.ExclWindowCloses
			row.FullFetches = st.Total.FullFetches
		} else {
			row.BaseWall = st.Wall
			row.BaseFaultWait = st.Total.FaultWait
			row.BaseBarrierWait = st.Total.BarrierWait
			row.BaseLockWait = st.Total.LockWait
			row.BaseMsgs = st.Net.TotalMsgs()
			row.BaseKBytes = st.Net.TotalBytes() / 1024
		}
	}
	return rows, nil
}

// WriteAdaptive renders the adaptive-protocol comparison: per app, the
// dominant baseline remote cost and how the adaptive run changed it,
// plus wall time, traffic, and the adaptation activity counters.
func WriteAdaptive(w io.Writer, rows []AdaptiveRow, nodes, threads int) {
	fmt.Fprintf(w, "Adaptive protocol (%d nodes x %d threads): per-page mode switching vs plain LRC\n",
		nodes, threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tdominant\tbase\tadaptive\tchange\tbase wall\tadapt wall\tbase msgs\tadapt msgs\tmodes\tupd hits\texcl closes\tfull fetches\t")
	for i := range rows {
		r := &rows[i]
		name, base, adapted := r.DominantCost()
		change := "-"
		if base > 0 {
			change = fmt.Sprintf("%+.1f%%", (float64(adapted)/float64(base)-1)*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%s\t%v\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.App, name, base, adapted, change, r.BaseWall, r.AdaptWall,
			r.BaseMsgs, r.AdaptMsgs, r.ModeChanges, r.UpdateHits, r.ExclWindowCloses, r.FullFetches)
	}
	tw.Flush()
}
