package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	// Quartiles are those of Python's statistics.quantiles(xs, n=4),
	// which is what the driver computes.
	cases := []struct {
		name        string
		xs          []float64
		med, q1, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 7, 7},
		{"two", []float64{1, 3}, 2, 0.5, 3.5},
		{"three", []float64{3, 1, 2}, 2, 1, 3},
		{"four", []float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{"ten", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{"eleven", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100}, 6, 3, 9},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("%s: median %g, want %g", c.name, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%s: quartiles %g %g, want %g %g", c.name, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadShare(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spreadShare(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread %g, want %g", got, want)
	}
	if got := spreadShare([]float64{0, 0}); got != 0 {
		t.Errorf("spread of zeros %g, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n     int
		ok    bool
		pct   float64
		value float64
	}{
		{10, false, 0, 0},
		{20, false, 0, 0}, // p50 leaves ten beyond it, but p50 is the median, not a tail
		{21, true, 52, 11},
		{100, true, 90, 90},
		{1000, true, 99, 990},
		{5000, true, 99, 4950},
	}
	for _, c := range cases {
		pct, value, ok := tailPercentile(seq(c.n))
		if ok != c.ok || pct != c.pct || value != c.value {
			t.Errorf("n=%d: p%g = %g (ok %v), want p%g = %g (ok %v)", c.n, pct, value, ok, c.pct, c.value, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > value {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, pct)
			}
		}
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 100}, 10},
		{[]float64{2, 4, 8}, 4},
		{[]float64{3, 0}, 0},
		{[]float64{3, -1}, 0},
	}
	for _, c := range cases {
		if got := geomean(c.xs); !near(got, c.want) {
			t.Errorf("geomean(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestSummaryStatesCountAndUnit(t *testing.T) {
	got := summarize([]float64{1, 2, 3}).format("ms")
	want := "2 ms (n=3, q1 1, q3 3)"
	if got != want {
		t.Errorf("format = %q, want %q", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	msec := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// cell [0,100] holds run [10,70], which holds two deliveries, and
	// check [70,95]; a second cell has no children.
	spans := []span{
		{Name: "cell", Cell: 1, Parent: -1, Start: msec(0), End: msec(100)},
		{Name: "run", Cell: 1, Parent: 0, Start: msec(10), End: msec(70)},
		{Name: "deliver", Cell: 1, Parent: 1, Start: msec(20), End: msec(30)},
		{Name: "deliver", Cell: 1, Parent: 1, Start: msec(40), End: msec(55)},
		{Name: "check", Cell: 1, Parent: 0, Start: msec(70), End: msec(95)},
		{Name: "cell", Cell: 2, Parent: -1, Start: msec(100), End: msec(130)},
	}
	want := []time.Duration{msec(15), msec(35), msec(10), msec(15), msec(25), msec(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	if total := rootTotal(spans); total != msec(130) {
		t.Errorf("root total %v, want 130ms", total)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != msec(130) {
		t.Errorf("self times sum to %v, want the root total 130ms", sum)
	}
	if d := totalOf(spans, "deliver"); d != msec(25) {
		t.Errorf("totalOf(deliver) = %v, want 25ms", d)
	}
}

func TestSpanRecorderNests(t *testing.T) {
	var none *spanRecorder
	ran := false
	none.beginCell()
	none.do("x", func() { ran = true })
	if !ran {
		t.Fatal("a nil recorder must still run the function")
	}

	r := newSpanRecorder()
	r.beginCell()
	r.do("outer", func() {
		r.do("inner", func() {})
	})
	r.beginCell()
	r.do("next", func() {})
	if len(r.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(r.spans))
	}
	if r.spans[1].Parent != 0 || r.spans[0].Parent != -1 || r.spans[2].Parent != -1 {
		t.Errorf("parents %d %d %d, want -1 0 -1", r.spans[0].Parent, r.spans[1].Parent, r.spans[2].Parent)
	}
	if r.spans[0].Cell != r.spans[1].Cell || r.spans[2].Cell == r.spans[0].Cell {
		t.Errorf("cells %d %d %d: spans of one cell share its id", r.spans[0].Cell, r.spans[1].Cell, r.spans[2].Cell)
	}
	if r.spans[0].End < r.spans[1].End || r.spans[1].Start < r.spans[0].Start {
		t.Error("the inner span must lie within the outer one")
	}
}
