package main

import (
	"fmt"
	"math"
	"slices"
)

// summary describes a set of timing samples the way the benchmark
// reports every timing: the median, the quartiles, and the highest
// percentile that still has at least ten samples beyond it (none below
// twenty-one samples), always with the sample count.
type summary struct {
	N       int
	Median  float64
	Q1, Q3  float64
	TailPct float64 // 0 when N is too small for any tail percentile
	Tail    float64
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// quantile interpolates linearly between order statistics (R type 7);
// s must be sorted and non-empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median of xs; 0 for an empty slice so that an absent measurement
// prints as 0 instead of NaN (JSON has no NaN).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(sorted(xs), 0.5)
}

// quartiles returns the first and third quartile with the exclusive
// method of Python's statistics.quantiles(xs, n=4), which is how the
// driver judges run-to-run spread; fewer than two samples give the
// sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th of 3 cut points over n+1 intervals
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailPercentile picks the highest whole percentile p such that at
// least ten samples lie strictly beyond its rank, and returns it with
// its value; ok is false when no percentile above the median qualifies.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for p := 99; p > 50; p-- {
		rank := (p*n + 99) / 100 // 1-based, rounded up
		if rank >= 1 && n-rank >= 10 {
			return float64(p), s[rank-1], true
		}
	}
	return 0, 0, false
}

func summarize(xs []float64) summary {
	sm := summary{N: len(xs), Median: median(xs)}
	sm.Q1, sm.Q3 = quartiles(xs)
	sm.TailPct, sm.Tail, _ = tailPercentile(xs)
	return sm
}

// format renders the summary with its unit and sample count, as every
// printed timing must.
func (s summary) format(unit string) string {
	out := fmt.Sprintf("%.6g %s (n=%d, q1 %.6g, q3 %.6g", s.Median, unit, s.N, s.Q1, s.Q3)
	if s.TailPct != 0 {
		out += fmt.Sprintf(", p%.0f %.6g", s.TailPct, s.Tail)
	}
	return out + ")"
}

// geomean is the geometric mean of strictly positive values; a
// non-positive value makes the mean undefined and yields 0.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// spreadShare is the interquartile distance as a share of the median:
// the run-to-run spread the benchmark contract bounds.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}
