package trace

import (
	"fmt"
	"io"
	"iter"
	"sort"
	"text/tabwriter"

	"cvm/internal/sim"
)

// LatencyStats summarizes one latency class with nearest-rank quantiles.
type LatencyStats struct {
	Count int
	Min   sim.Time
	Max   sim.Time
	Mean  sim.Time
	P50   sim.Time
	P95   sim.Time
	P99   sim.Time
}

// summarize computes LatencyStats over samples (consumed: sorted in
// place).
func summarize(samples []sim.Time) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum sim.Time
	for _, s := range samples {
		sum += s
	}
	q := func(p float64) sim.Time {
		// Nearest-rank: the smallest sample with at least p of the mass
		// at or below it.
		i := int(float64(len(samples))*p+0.9999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(samples) {
			i = len(samples) - 1
		}
		return samples[i]
	}
	return LatencyStats{
		Count: len(samples),
		Min:   samples[0],
		Max:   samples[len(samples)-1],
		Mean:  sum / sim.Time(len(samples)),
		P50:   q(0.50),
		P95:   q(0.95),
		P99:   q(0.99),
	}
}

// Report is the latency analysis of one trace: per-class histograms of
// the protocol's end-to-end paths, reconstructed purely from events.
// On a default-calibrated cluster the uncontended classes reproduce the
// paper's §4.1 costs: 2-hop locks ≈937 µs, remote faults ≈1100 µs.
type Report struct {
	Events     int
	Dropped    uint64
	KindCounts [numKinds]int

	// RemoteFault spans fault.start → fault.resolve (the resolve's Dur):
	// signal delivery, parallel diff fetches, application, reprotection.
	RemoteFault LatencyStats

	// Lock2Hop / Lock3Hop span lock.request → lock.acquire for remote
	// acquires (the acquire's Dur), classified by its hop count: the
	// 2-hop path when the manager held the token or was asked by its
	// holder, the 3-hop path when the manager forwarded the request.
	// Queueing behind a held token is included, so contended locks
	// stretch the upper quantiles.
	Lock2Hop LatencyStats
	Lock3Hop LatencyStats

	// LocalLockAcquires counts acquires satisfied without messages.
	LocalLockAcquires int

	// BarrierStall spans barrier.arrive → barrier.release per thread for
	// global barriers; LocalBarrierStall is the same for node-local
	// barriers.
	BarrierStall      LatencyStats
	LocalBarrierStall LatencyStats

	// MsgLatency spans msg.send → msg.deliver (the deliver's Dur: egress
	// departure to handler start, including ingress serialization).
	MsgLatency LatencyStats
}

// Analyze builds the latency report from events. Events must be in
// (T, Seq) order, as returned by Recorder.Events.
func Analyze(events []Event) *Report {
	return analyze(func(yield func(*Event) bool) {
		for i := range events {
			if !yield(&events[i]) {
				return
			}
		}
	})
}

// analyze is Analyze over a stream, so a recorder's events are read in
// place rather than copied out.
func analyze(events iter.Seq[*Event]) *Report {
	r := &Report{}

	type syncKey struct{ node, sync int32 }
	barrierArrive := make(map[syncKey][]sim.Time)

	var faults, lock2, lock3, stall, localStall, msg []sim.Time

	for e := range events {
		r.Events++
		r.KindCounts[e.Kind]++
		switch e.Kind {
		case KindFaultResolve:
			faults = append(faults, e.Dur)

		case KindLockAcquire:
			switch e.Aux {
			case 0, 1:
				r.LocalLockAcquires++
			case 2:
				lock2 = append(lock2, e.Dur)
			case 3:
				lock3 = append(lock3, e.Dur)
			}

		case KindBarrierArrive:
			if e.Aux == BarrierReduce {
				continue
			}
			k := syncKey{e.Node, e.Sync}
			barrierArrive[k] = append(barrierArrive[k], e.T)

		case KindBarrierRelease:
			k := syncKey{e.Node, e.Sync}
			for _, t0 := range barrierArrive[k] {
				if e.Aux == 1 {
					localStall = append(localStall, e.T-t0)
				} else {
					stall = append(stall, e.T-t0)
				}
			}
			delete(barrierArrive, k)

		case KindMsgDeliver:
			msg = append(msg, e.Dur)
		}
	}

	r.RemoteFault = summarize(faults)
	r.Lock2Hop = summarize(lock2)
	r.Lock3Hop = summarize(lock3)
	r.BarrierStall = summarize(stall)
	r.LocalBarrierStall = summarize(localStall)
	r.MsgLatency = summarize(msg)
	return r
}

// AnalyzeRecorder analyzes a recorder's retained events, carrying the
// drop count into the report so bounded traces are flagged.
func AnalyzeRecorder(rec *Recorder) *Report {
	r := analyze(rec.ordered())
	r.Dropped = rec.Dropped()
	return r
}

// Write renders the report: the per-class latency table (the §4.1
// comparison), then event-kind counts.
func (r *Report) Write(w io.Writer) error {
	fmt.Fprintf(w, "Trace latency report: %d events", r.Events)
	if r.Dropped > 0 {
		fmt.Fprintf(w, " (%d dropped by the ring bound; latencies are partial)", r.Dropped)
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "class\tcount\tp50\tp95\tp99\tmean\tmin\tmax\tpaper §4.1\t")
	row := func(name string, s LatencyStats, paper string) {
		if s.Count == 0 {
			fmt.Fprintf(tw, "%s\t0\t-\t-\t-\t-\t-\t-\t%s\t\n", name, paper)
			return
		}
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\t%v\t%v\t%s\t\n",
			name, s.Count, s.P50, s.P95, s.P99, s.Mean, s.Min, s.Max, paper)
	}
	row("remote fault", r.RemoteFault, "~1100µs")
	row("2-hop lock", r.Lock2Hop, "937µs")
	row("3-hop lock", r.Lock3Hop, "1382µs")
	row("barrier stall", r.BarrierStall, "-")
	row("local barrier stall", r.LocalBarrierStall, "-")
	row("message one-way", r.MsgLatency, "465µs hdr")
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "local lock acquires (no messages): %d\n", r.LocalLockAcquires)
	fmt.Fprintln(w, "event counts:")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	for k := Kind(0); k < numKinds; k++ {
		if r.KindCounts[k] > 0 {
			fmt.Fprintf(tw, "  %s\t%d\t\n", k, r.KindCounts[k])
		}
	}
	return tw.Flush()
}
