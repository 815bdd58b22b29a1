package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own code. Spans of one cell share its id; parent is the index of the
// enclosing span (-1 for a cell's root).
type span struct {
	Name   string
	Cell   int
	Parent int
	Start  time.Duration // since the recorder was created
	End    time.Duration
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes share the code of traced ones
// while paying one nil check per layer call. It is used from the single
// driver goroutine only.
type spanRecorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
	cell  int
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now()}
}

// beginCell starts a new cell id; the spans opened until the next call
// belong to it.
func (r *spanRecorder) beginCell() {
	if r != nil {
		r.cell++
	}
}

// do runs fn inside a span called name.
func (r *spanRecorder) do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Cell: r.cell, Parent: parent, Start: time.Since(r.epoch)})
	r.open = append(r.open, idx)
	fn()
	r.spans[idx].End = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// rootTotal sums the durations of the root spans: the wall time the
// recorder accounts for in named spans.
func rootTotal(spans []span) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			total += s.End - s.Start
		}
	}
	return total
}

// spanTotal sums the durations and self times of the spans of one name.
type spanTotal struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// spanTotals groups the spans by name, largest self time first.
func spanTotals(spans []span) []spanTotal {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanTotal
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanTotal{Name: s.Name})
		}
		out[j].Count++
		out[j].Total += s.End - s.Start
		out[j].Self += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

// totalOf reports the summed duration of every span called name.
func totalOf(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// writeSpans writes one line per span with its self time, then the
// per-name totals.
func writeSpans(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	for i, s := range spans {
		if _, err := fmt.Fprintf(w, "span %d cell=%d parent=%d name=%s start_us=%d end_us=%d self_us=%d\n",
			i, s.Cell, s.Parent, s.Name, s.Start.Microseconds(), s.End.Microseconds(), self[i].Microseconds()); err != nil {
			return err
		}
	}
	for _, t := range spanTotals(spans) {
		if _, err := fmt.Fprintf(w, "total name=%s n=%d total_ms=%.3f self_ms=%.3f\n",
			t.Name, t.Count, ms(t.Total), ms(t.Self)); err != nil {
			return err
		}
	}
	return nil
}

func sec(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
