package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"cvm/internal/sim"
)

// writeChromeRef is the fmt-based writer WriteChrome replaced, kept as
// the oracle the append-based one must match byte for byte (as
// internal/sim/dispatch_ref_test.go keeps the old dispatch loop). It is
// the parent's function verbatim but for its event source (eventsRef,
// the parent's Events) and the marked places, where it takes the same
// changes the new writer does — the ordered tail, the reduction's
// arrival and the lock acquire read from Aux — so that streams holding
// them can be compared too.
func writeChromeRef(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"traceEvents\":[\n")

	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}

	// Metadata: name and order the node processes and their tracks.
	for n := 0; n < r.Nodes(); n++ {
		emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"node %d"}}`, n, n)
		emit(`{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`, n, n)
		emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"protocol"}}`, n)
		for l := 0; l < r.ThreadsPerNode(); l++ {
			gid := n*r.ThreadsPerNode() + l
			emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"thread g%d"}}`, n, l+1, gid)
		}
	}

	tid := func(e Event) int {
		if e.Thread < 0 {
			return 0
		}
		return int(e.Thread) - int(e.Node)*r.ThreadsPerNode() + 1
	}

	type pageKey struct{ node, page int32 }
	type syncKey struct{ node, sync int32 }
	faultStart := make(map[pageKey]Event)
	lockReq := make(map[syncKey]Event)
	barrierArrive := make(map[syncKey][]Event)

	span := func(name, cat string, start, end Event, onTid int) {
		emit(`{"name":%q,"cat":%q,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d}`,
			name, cat, usecRef(start.T), usecRef(end.T-start.T), start.Node, onTid)
	}
	instant := func(e Event, name, cat, args string) {
		if args == "" {
			emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d}`,
				name, cat, usecRef(e.T), e.Node, tid(e))
			return
		}
		emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{%s}}`,
			name, cat, usecRef(e.T), e.Node, tid(e), args)
	}

	for _, e := range eventsRef(r) {
		switch e.Kind {
		case KindFaultStart:
			faultStart[pageKey{e.Node, e.Page}] = e

		case KindFaultResolve:
			k := pageKey{e.Node, e.Page}
			if s, ok := faultStart[k]; ok {
				delete(faultStart, k)
				onTid := tid(s) // the faulting thread, even if resolve ran in handler context
				span(fmt.Sprintf("fault p%d", e.Page), "fault", s, e, onTid)
			} else {
				instant(e, fmt.Sprintf("fault p%d resolve", e.Page), "fault",
					fmt.Sprintf(`"diffs":%d`, e.Arg))
			}

		case KindTwinCreate:
			instant(e, fmt.Sprintf("twin p%d", e.Page), "diff", "")

		case KindDiffCreate:
			instant(e, fmt.Sprintf("diff p%d create", e.Page), "diff",
				fmt.Sprintf(`"bytes":%d,"interval":%d`, e.Arg, e.Aux))

		case KindDiffApply:
			instant(e, fmt.Sprintf("diff p%d apply", e.Page), "diff",
				fmt.Sprintf(`"from":%d,"interval":%d,"bytes":%d`, e.Peer, e.Arg, e.Aux))

		case KindLockRequest:
			lockReq[syncKey{e.Node, e.Sync}] = e

		case KindLockForward:
			instant(e, fmt.Sprintf("lock %d forward", e.Sync), "lock",
				fmt.Sprintf(`"requester":%d,"to":%d`, e.Arg, e.Peer))

		case KindLockGrant:
			instant(e, fmt.Sprintf("lock %d grant", e.Sync), "lock", "")

		case KindLockAcquire:
			k := syncKey{e.Node, e.Sync}
			// Changed with the event: a remote acquire is Aux 2 or 3 (the
			// parent read Arg 0, which lock.acquire no longer carries).
			if s, ok := lockReq[k]; ok && e.Aux >= 2 {
				delete(lockReq, k)
				span(fmt.Sprintf("lock %d acquire", e.Sync), "lock", s, e, tid(e))
			} else {
				instant(e, fmt.Sprintf("lock %d acquire", e.Sync), "lock", `"local":1`)
			}

		case KindLockRelease:
			instant(e, fmt.Sprintf("lock %d release", e.Sync), "lock", "")

		case KindBarrierArrive:
			// Changed with the event: a reduction's arrival has no release.
			if e.Aux != BarrierReduce {
				k := syncKey{e.Node, e.Sync}
				barrierArrive[k] = append(barrierArrive[k], e)
			}

		case KindBarrierRelease:
			k := syncKey{e.Node, e.Sync}
			name := fmt.Sprintf("barrier %d wait", e.Sync)
			if e.Aux == 1 {
				name = fmt.Sprintf("local barrier %d wait", e.Sync)
			}
			for _, a := range barrierArrive[k] {
				span(name, "barrier", a, e, tid(a))
			}
			delete(barrierArrive, k)

		case KindThreadSwitch:
			// Flow arrow from the switched-out thread to the dispatched
			// one, plus an instant marking the switch cost point.
			from := e
			from.Thread = int32(e.Arg)
			emit(`{"name":"switch","cat":"sched","ph":"s","id":%d,"ts":%s,"pid":%d,"tid":%d}`,
				switchFlowBase+e.Seq, usecRef(e.T), e.Node, tid(from))
			emit(`{"name":"switch","cat":"sched","ph":"f","bp":"e","id":%d,"ts":%s,"pid":%d,"tid":%d}`,
				switchFlowBase+e.Seq, usecRef(e.T), e.Node, tid(e))
			instant(e, "switch in", "sched", fmt.Sprintf(`"from":"g%d"`, e.Arg))

		case KindThreadBlock:
			instant(e, "block", "sched", fmt.Sprintf(`"reason":%q`, reasonNameRef(e.Arg)))

		case KindThreadUnblock:
			instant(e, "unblock", "sched", fmt.Sprintf(`"reason":%q`, reasonNameRef(e.Arg)))

		case KindMsgSend:
			emit(`{"name":%q,"cat":"msg","ph":"s","id":%d,"ts":%s,"pid":%d,"tid":0,"args":{"bytes":%d}}`,
				"msg "+classNameRef(e.Sync), e.Aux, usecRef(e.T), e.Node, e.Arg)

		case KindMsgDeliver:
			emit(`{"name":%q,"cat":"msg","ph":"f","bp":"e","id":%d,"ts":%s,"pid":%d,"tid":0,"args":{"bytes":%d}}`,
				"msg "+classNameRef(e.Sync), e.Aux, usecRef(e.T), e.Node, e.Arg)

		case KindMsgDrop:
			instant(e, "drop "+classNameRef(e.Sync), "fault-inject",
				fmt.Sprintf(`"to":%d,"bytes":%d,"id":%d`, e.Peer, e.Arg, e.Aux))

		case KindMsgDup:
			instant(e, "dup "+classNameRef(e.Sync), "fault-inject",
				fmt.Sprintf(`"to":%d,"bytes":%d,"id":%d`, e.Peer, e.Arg, e.Aux))

		case KindRetransmit:
			instant(e, "retransmit "+classNameRef(e.Sync), "transport",
				fmt.Sprintf(`"to":%d,"id":%d,"attempt":%d`, e.Peer, e.Aux, e.Arg))

		case KindDupSuppress:
			instant(e, "dup-suppress "+classNameRef(e.Sync), "transport",
				fmt.Sprintf(`"from":%d,"id":%d`, e.Peer, e.Aux))
		}
	}

	// Faults or lock requests still open at the end of the trace (their
	// resolution fell outside the ring bound, or the run was cut) render
	// as instants so the data is not lost.
	// Changed with the rewrite: the parent ranged over the two maps, so
	// two open faults came out in a different order each time.
	for _, e := range refOpen(faultStart) {
		instant(e, fmt.Sprintf("fault p%d (unresolved)", e.Page), "fault", "")
	}
	for _, e := range refOpen(lockReq) {
		instant(e, fmt.Sprintf("lock %d request (ungranted)", e.Sync), "lock", "")
	}

	fmt.Fprintf(bw, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// eventsRef is the parent's Events: every ring copied out end to end,
// then one reflection sort by (T, Seq) that swaps whole events.
func eventsRef(r *Recorder) []Event {
	var out []Event
	for n := 0; n < r.Nodes(); n++ {
		out = append(out, r.NodeEvents(n)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// refOpen returns m's values ordered by (T, Seq).
func refOpen[K comparable](m map[K]Event) []Event {
	out := make([]Event, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// usecRef renders a virtual time as microseconds with nanosecond precision,
// the unit Chrome trace timestamps use. Fixed %d.%03d formatting keeps
// the output byte-stable (no float rounding).
func usecRef(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, int64(t)/1000, int64(t)%1000)
}

// classNameRef names a message class for export. The mapping mirrors
// netsim's Table 2 classes (trace cannot import netsim — netsim emits
// into trace); the netsim class-guard test keeps the two in sync.
func classNameRef(class int32) string {
	switch class {
	case 0:
		return "barrier"
	case 1:
		return "lock"
	case 2:
		return "diff"
	default:
		return fmt.Sprintf("class%d", class)
	}
}

// reasonNameRef names a block reason. Values mirror core's Reason
// constants (fault, lock, barrier).
func reasonNameRef(r int64) string {
	switch r {
	case 1:
		return "fault"
	case 2:
		return "lock"
	case 3:
		return "barrier"
	default:
		return fmt.Sprintf("reason%d", r)
	}
}

// WriteChromeRef, EventsRef and RetainedBytes let the tests that run
// programs (package trace_test, which may import cvm) reach the
// references and the rings' size.
var (
	WriteChromeRef = writeChromeRef
	EventsRef      = eventsRef
	RetainedBytes  = retainedBytes
)
