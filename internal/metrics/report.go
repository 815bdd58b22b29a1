package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Meta identifies the run a report describes.
type Meta struct {
	App    string `json:"app,omitempty"`
	Config string `json:"config,omitempty"`
}

// HotEntry is one row of a derived hot-spot table.
type HotEntry struct {
	ID     int32 `json:"id"`
	WaitNs int64 `json:"wait_ns"`
	Count  int64 `json:"count"`
}

// Report is the serializable run profile: the raw snapshot plus the
// derived top-N hot-page and hot-lock tables. Real is present only for
// reports produced by a wall-clock backend (loopback or TCP): its
// absence is how tooling tells a virtual-time simulator report from a
// real-run report, and omitempty keeps simulator reports byte-identical
// to the pre-Real format.
type Report struct {
	Meta     Meta       `json:"meta"`
	Snapshot *Snapshot  `json:"snapshot"`
	HotPages []HotEntry `json:"hot_pages"`
	HotLocks []HotEntry `json:"hot_locks"`
	Real     *RealStats `json:"real,omitempty"`
}

// RealStats is the wall-clock section of a real-run report: backend
// identity, elapsed wall time, and the transport traffic totals (with
// the per-peer breakdown when the backend tracks one).
type RealStats struct {
	Backend   string          `json:"backend"`
	Nodes     int             `json:"nodes"`
	ElapsedNs int64           `json:"elapsed_ns"`
	Classes   []RealClassStat `json:"classes,omitempty"`
	Peers     []RealPeerStat  `json:"peers,omitempty"`
}

// RealClassStat is one message class's transport traffic total.
type RealClassStat struct {
	Class string `json:"class"`
	Msgs  int64  `json:"msgs"`
	Bytes int64  `json:"bytes"`
}

// RealPeerStat is one destination peer's transport traffic total, as
// seen from the node(s) whose stats fed the report.
type RealPeerStat struct {
	Peer  int   `json:"peer"`
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
}

// NewReport derives a report from a snapshot, keeping the top n entries
// of each hot-spot table (n ≤ 0 keeps all).
func NewReport(meta Meta, snap *Snapshot, n int) *Report {
	return &Report{
		Meta:     meta,
		Snapshot: snap,
		HotPages: hotTable(snap.PageWait, n),
		HotLocks: hotTable(snap.LockWait, n),
	}
}

func hotTable(m map[int32]*WaitAttr, n int) []HotEntry {
	entries := topN(m, n)
	out := make([]HotEntry, len(entries))
	for i, e := range entries {
		out[i] = HotEntry{ID: e.id, WaitNs: e.attr.WaitNs, Count: e.attr.Count}
	}
	return out
}

// WriteJSON writes the report as indented JSON. The encoding is
// byte-deterministic: struct fields encode in declaration order and map
// keys are sorted by encoding/json.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Emit delivers the report every way a command line asks for it: the
// text profile on out when text is set, then JSON and CSV into the
// named files (an empty path skips one), each confirmed by a line on
// out.
func (r *Report) Emit(out io.Writer, text bool, jsonPath, csvPath string) error {
	if text {
		if err := r.WriteText(out); err != nil {
			return err
		}
	}
	for _, file := range []struct {
		path, what string
		write      func(io.Writer) error
	}{{jsonPath, "metrics report", r.WriteJSON}, {csvPath, "metrics CSV", r.WriteCSV}} {
		if file.path == "" {
			continue
		}
		f, err := os.Create(file.path)
		if err != nil {
			return err
		}
		if err := file.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s to %s\n", file.what, file.path)
	}
	return nil
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	if r.Snapshot == nil {
		return nil, fmt.Errorf("metrics: report has no snapshot")
	}
	return &r, nil
}

// WriteCSV writes one row per histogram (and per counter), walking the
// snapshot with the same reflection as Snapshot.Merge, so every metric
// field reaches the CSV without being named here.
func (r *Report) WriteCSV(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("scope,metric,count,sum,min,max,mean,p50,p95,p99\n")
	r.Snapshot.EachHistogram(func(scope, name string, h *Histogram) {
		pr("%s,%s,%d,%d,%d,%d,%d,%d,%d,%d\n",
			scope, name, h.Count, h.Sum, h.Min, h.Max,
			h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
	})
	r.Snapshot.EachCounter(func(name string, c *Counter) {
		pr("run,%s,,%d,,,,,,\n", name, int64(*c))
	})
	return err
}

// aggregateNodes merges every node's metrics into one NodeMetrics.
func aggregateNodes(s *Snapshot) NodeMetrics {
	var agg NodeMetrics
	for i := range s.Nodes {
		mergeInto(&agg, &s.Nodes[i])
	}
	return agg
}

// WriteText writes the human-readable run profile: the Figure-1 wall
// breakdown per node, cluster-wide latency histograms, per-class network
// latencies, the hot-page/hot-lock tables, and a per-node utilization
// timeline.
func (r *Report) WriteText(w io.Writer) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	s := r.Snapshot

	if r.Meta.App != "" || r.Meta.Config != "" {
		pr("run: %s %s\n\n", r.Meta.App, r.Meta.Config)
	}

	// Figure-1 decomposition: per node, wall == user + fault + lock +
	// barrier exactly (same hooks as NodeStats).
	pr("wall-time breakdown (virtual time)\n")
	pr("  %-5s %12s %12s %12s %12s %12s\n", "node", "user", "fault", "lock", "barrier", "wall")
	for i := range s.Nodes {
		n := &s.Nodes[i]
		wall := n.UserBurst.Sum + n.FaultIdle.Sum + n.LockIdle.Sum + n.BarrierIdle.Sum
		pr("  %-5d %12s %12s %12s %12s %12s\n", i,
			fmtNs(n.UserBurst.Sum), fmtNs(n.FaultIdle.Sum),
			fmtNs(n.LockIdle.Sum), fmtNs(n.BarrierIdle.Sum), fmtNs(wall))
	}

	agg := aggregateNodes(s)
	pr("\nlatency histograms (all nodes)\n")
	pr("  %-20s %9s %12s %12s %12s %12s %12s\n", "metric", "count", "mean", "min", "p50", "p95", "max")
	forEachHistField(&agg, func(name string, h *Histogram) {
		if h.Count == 0 {
			return
		}
		if name == "run_queue" || name == "diff_bytes" {
			// Occupancy is in threads and diff sizes in bytes, not
			// nanoseconds.
			pr("  %-20s %9d %12d %12d %12d %12d %12d\n",
				name, h.Count, h.Mean(), h.Min, h.Quantile(0.50), h.Quantile(0.95), h.Max)
			return
		}
		pr("  %-20s %9d %12s %12s %12s %12s %12s\n", name, h.Count,
			fmtNs(h.Mean()), fmtNs(h.Min), fmtNs(h.Quantile(0.50)), fmtNs(h.Quantile(0.95)), fmtNs(h.Max))
	})

	pr("\nnetwork latency by message class\n")
	pr("  %-10s %9s %12s %12s %12s %12s\n", "class", "count", "mean", "p95", "egress", "ingress")
	for c := range s.Net.Latency {
		h := &s.Net.Latency[c]
		if h.Count == 0 {
			continue
		}
		class := fmt.Sprintf("class%d", c)
		if c < len(s.MsgClasses) {
			class = s.MsgClasses[c]
		}
		pr("  %-10s %9d %12s %12s %12s %12s\n", class, h.Count,
			fmtNs(h.Mean()), fmtNs(h.Quantile(0.95)),
			fmtNs(s.Net.EgressWait[c].Mean()), fmtNs(s.Net.IngressWait[c].Mean()))
	}

	writeHot := func(title, unit string, entries []HotEntry) {
		if len(entries) == 0 {
			return
		}
		pr("\n%s\n", title)
		pr("  %-8s %12s %9s %12s\n", unit, "wait", "waits", "mean")
		for _, e := range entries {
			mean := int64(0)
			if e.Count > 0 {
				mean = e.WaitNs / e.Count
			}
			pr("  %-8d %12s %9d %12s\n", e.ID, fmtNs(e.WaitNs), e.Count, fmtNs(mean))
		}
	}
	writeHot("hottest pages (fault wait)", "page", r.HotPages)
	writeHot("most contended locks (acquire wait)", "lock", r.HotLocks)

	if re := r.Real; re != nil {
		pr("\nreal transport (%s, %d nodes, wall time)\n", re.Backend, re.Nodes)
		pr("  elapsed: %s\n", fmtNs(re.ElapsedNs))
		if len(re.Classes) > 0 {
			pr("  %-10s %9s %12s\n", "class", "msgs", "bytes")
			for _, c := range re.Classes {
				pr("  %-10s %9d %12d\n", c.Class, c.Msgs, c.Bytes)
			}
		}
		if len(re.Peers) > 0 {
			pr("  %-10s %9s %12s\n", "peer", "msgs", "bytes")
			for _, p := range re.Peers {
				pr("  node%-6d %9d %12d\n", p.Peer, p.Msgs, p.Bytes)
			}
		}
	}

	writeTimeline(pr, s)
	return err
}

// timelineCols bounds the width of the ASCII utilization timeline.
const timelineCols = 60

// writeTimeline renders each node's utilization timeline, one character
// per (possibly downsampled) bin: the dominant component of the bin
// (U=user, F=fault, L=lock, B=barrier, .=no attributed time).
func writeTimeline(pr func(string, ...any), s *Snapshot) {
	bins := 0
	for _, tl := range s.Timeline {
		if len(tl) > bins {
			bins = len(tl)
		}
	}
	if bins == 0 {
		return
	}
	group := (bins + timelineCols - 1) / timelineCols
	cols := (bins + group - 1) / group
	pr("\nutilization timeline (%s per column; U=user F=fault L=lock B=barrier)\n",
		fmtNs(int64(s.IntervalNs)*int64(group)))
	for node, tl := range s.Timeline {
		var row strings.Builder
		for c := 0; c < cols; c++ {
			var bin TimelineBin
			for g := 0; g < group; g++ {
				if i := c*group + g; i < len(tl) {
					bin.UserNs += tl[i].UserNs
					bin.FaultNs += tl[i].FaultNs
					bin.LockNs += tl[i].LockNs
					bin.BarrierNs += tl[i].BarrierNs
				}
			}
			row.WriteByte(dominant(&bin))
		}
		pr("  node%-3d |%s|\n", node, row.String())
	}
	if s.TimelineClippedNs > 0 {
		pr("  (timeline clipped: %s past bin cap)\n", fmtNs(int64(s.TimelineClippedNs)))
	}
}

func dominant(b *TimelineBin) byte {
	if b.total() == 0 {
		return '.'
	}
	best, ch := b.UserNs, byte('U')
	if b.FaultNs > best {
		best, ch = b.FaultNs, 'F'
	}
	if b.LockNs > best {
		best, ch = b.LockNs, 'L'
	}
	if b.BarrierNs > best {
		ch = 'B'
	}
	return ch
}

// fmtNs renders a virtual-time duration with a fixed, deterministic
// format: ns below 10µs, µs below 10ms, ms otherwise.
func fmtNs(ns int64) string {
	switch {
	case ns < 10_000 && ns > -10_000:
		return fmt.Sprintf("%dns", ns)
	case ns < 10_000_000 && ns > -10_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	}
}
