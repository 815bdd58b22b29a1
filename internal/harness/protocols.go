package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/core"
)

// Pair is one application's two runs in an A/B study: Base under the
// default configuration, Variant with the one thing changed.
type Pair struct {
	App           string
	Base, Variant cvm.Stats
}

// comparePairs runs every application that supports the shape twice —
// plain, and with mut applied — and pairs the results in application
// order. Both runs validate against the sequential reference, so the
// variant's coherence is exercised end to end.
func comparePairs(appNames []string, size apps.Size, nodes, threads int, baseLabel, variantLabel string,
	mut func(*cvm.Config), progress io.Writer, workers int) ([]Pair, error) {
	grid, err := GridCells(appNames, size, []Shape{{nodes, threads}})
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, 2*len(grid))
	for _, c := range grid {
		base, variant := c, c
		base.Label, variant.Label, variant.Mut = baseLabel, variantLabel, mut
		cells = append(cells, base, variant)
	}
	out, err := RunCells(cells, size, progress, workers)
	if err != nil {
		return nil, err
	}
	pairs := make([]Pair, len(grid))
	for i, c := range grid {
		pairs[i] = Pair{App: c.App, Base: out[2*i].Stats, Variant: out[2*i+1].Stats}
	}
	return pairs, nil
}

// CompareProtocols pairs the paper's lazy multi-writer release
// consistency (Base) with the single-writer write-invalidate baseline
// (Variant) — the comparison of the paper's reference [1], Keleher
// ICDCS'96.
func CompareProtocols(appNames []string, size apps.Size, nodes, threads int, progress io.Writer, workers int) ([]Pair, error) {
	return comparePairs(appNames, size, nodes, threads, "under LRC", "under SW",
		func(cfg *cvm.Config) { cfg.Protocol = core.ProtocolSW }, progress, workers)
}

// WriteProtocols renders the protocol comparison.
func WriteProtocols(w io.Writer, pairs []Pair, nodes, threads int) {
	fmt.Fprintf(w, "Protocol comparison (%d nodes x %d threads): lazy multi-writer LRC vs single-writer invalidate\n",
		nodes, threads)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "app\tLRC wall\tSW wall\tSW/LRC\tLRC msgs\tSW msgs\tLRC KB\tSW KB\t")
	for _, p := range pairs {
		lrc, sw := p.Base, p.Variant
		fmt.Fprintf(tw, "%s\t%v\t%v\t%.2fx\t%d\t%d\t%d\t%d\t\n",
			p.App, lrc.Wall, sw.Wall, float64(sw.Wall)/float64(lrc.Wall),
			lrc.Net.TotalMsgs(), sw.Net.TotalMsgs(),
			lrc.Net.TotalBytes()/1024, sw.Net.TotalBytes()/1024)
	}
	tw.Flush()
}
