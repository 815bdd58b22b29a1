package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cvm"
	"cvm/internal/apps"
)

// CompareAdaptive pairs every application's plain-LRC run (Base) with
// its run under per-page adaptive mode switching (Variant).
func CompareAdaptive(appNames []string, size apps.Size, nodes, threads int, progress io.Writer, workers int) ([]Pair, error) {
	return comparePairs(appNames, size, nodes, threads, "(baseline)", "(adaptive)",
		func(cfg *cvm.Config) { cfg.Adapt = true }, progress, workers)
}

// DominantCost names the largest baseline Figure-1 remote-cost component
// (fault, barrier or lock wait) and reports its baseline and variant
// values. That component is the paper's per-app bottleneck; the adaptive
// protocol's win condition is reducing it.
func (p *Pair) DominantCost() (name string, base, variant cvm.Time) {
	b, v := &p.Base.Total, &p.Variant.Total
	name, base, variant = "fault", b.FaultWait, v.FaultWait
	if b.BarrierWait > base {
		name, base, variant = "barrier", b.BarrierWait, v.BarrierWait
	}
	if b.LockWait > base {
		name, base, variant = "lock", b.LockWait, v.LockWait
	}
	return name, base, variant
}

// WriteAdaptive renders the adaptive-protocol comparison: per app, the
// dominant baseline remote cost and how the adaptive run changed it,
// plus wall time, traffic, and the adaptation activity — notices
// applied and fault ranges update mode served from pushed chains.
func WriteAdaptive(w io.Writer, pairs []Pair, nodes, threads int) {
	fmt.Fprintf(w, "Adaptive protocol (%d nodes x %d threads): per-page mode switching vs plain LRC\n",
		nodes, threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tdominant\tbase\tadaptive\tchange\tbase wall\tadapt wall\tbase msgs\tadapt msgs\tmodes\tupd hits\t")
	for i := range pairs {
		p := &pairs[i]
		name, base, adapted := p.DominantCost()
		change := "-"
		if base > 0 {
			change = fmt.Sprintf("%+.1f%%", (float64(adapted)/float64(base)-1)*100)
		}
		ad := &p.Variant.Total
		fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%s\t%v\t%v\t%d\t%d\t%d\t%d\t\n",
			p.App, name, base, adapted, change, p.Base.Wall, p.Variant.Wall,
			p.Base.Net.TotalMsgs(), p.Variant.Net.TotalMsgs(),
			ad.ModeChanges, ad.UpdateHits)
	}
	tw.Flush()
}
