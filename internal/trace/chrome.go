package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"cvm/internal/sim"
)

// WriteChrome renders the recorder's events in the Chrome trace-event
// JSON format (loadable in Perfetto / chrome://tracing). Layout:
//
//   - one process per node (pid = node id);
//   - tid 0 is the node's "protocol" track (handler-context events:
//     message deliveries, lock grants, barrier releases);
//   - tid 1..T are the node's application threads;
//   - remote faults, remote lock acquires and barrier waits render as
//     complete ("X") duration slices on the owning thread's track;
//   - message send→deliver pairs and thread switches render as flow
//     arrows ("s"/"f") so cross-node causality and switch chains are
//     visible;
//   - everything else renders as instant events with kind-specific args.
//
// The output is built with a fixed field order and fixed-precision
// timestamps, so for a given run it is byte-reproducible — the property
// the golden-trace regression test locks in.
func WriteChrome(w io.Writer, r *Recorder) error {
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
			name, cat, usec(start.T), usec(end.T-start.T), start.Node, onTid)
	}
	instant := func(e Event, name, cat, args string) {
		if args == "" {
			emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d}`,
				name, cat, usec(e.T), e.Node, tid(e))
			return
		}
		emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{%s}}`,
			name, cat, usec(e.T), e.Node, tid(e), args)
	}

	for _, e := range r.Events() {
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
			if s, ok := lockReq[k]; ok && e.Arg == 0 {
				delete(lockReq, k)
				span(fmt.Sprintf("lock %d acquire", e.Sync), "lock", s, e, tid(e))
			} else {
				instant(e, fmt.Sprintf("lock %d acquire", e.Sync), "lock", `"local":1`)
			}

		case KindLockRelease:
			instant(e, fmt.Sprintf("lock %d release", e.Sync), "lock", "")

		case KindBarrierArrive:
			k := syncKey{e.Node, e.Sync}
			barrierArrive[k] = append(barrierArrive[k], e)

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
				switchFlowBase+e.Seq, usec(e.T), e.Node, tid(from))
			emit(`{"name":"switch","cat":"sched","ph":"f","bp":"e","id":%d,"ts":%s,"pid":%d,"tid":%d}`,
				switchFlowBase+e.Seq, usec(e.T), e.Node, tid(e))
			instant(e, "switch in", "sched", fmt.Sprintf(`"from":"g%d"`, e.Arg))

		case KindThreadBlock:
			instant(e, "block", "sched", fmt.Sprintf(`"reason":%q`, reasonName(e.Arg)))

		case KindThreadUnblock:
			instant(e, "unblock", "sched", fmt.Sprintf(`"reason":%q`, reasonName(e.Arg)))

		case KindMsgSend:
			emit(`{"name":%q,"cat":"msg","ph":"s","id":%d,"ts":%s,"pid":%d,"tid":0,"args":{"bytes":%d}}`,
				"msg "+className(e.Sync), e.Aux, usec(e.T), e.Node, e.Arg)

		case KindMsgDeliver:
			emit(`{"name":%q,"cat":"msg","ph":"f","bp":"e","id":%d,"ts":%s,"pid":%d,"tid":0,"args":{"bytes":%d}}`,
				"msg "+className(e.Sync), e.Aux, usec(e.T), e.Node, e.Arg)

		case KindMsgDrop:
			instant(e, "drop "+className(e.Sync), "fault-inject",
				fmt.Sprintf(`"to":%d,"bytes":%d,"id":%d`, e.Peer, e.Arg, e.Aux))

		case KindMsgDup:
			instant(e, "dup "+className(e.Sync), "fault-inject",
				fmt.Sprintf(`"to":%d,"bytes":%d,"id":%d`, e.Peer, e.Arg, e.Aux))

		case KindRetransmit:
			instant(e, "retransmit "+className(e.Sync), "transport",
				fmt.Sprintf(`"to":%d,"seq":%d,"attempt":%d`, e.Peer, e.Aux, e.Arg))

		case KindDupSuppress:
			instant(e, "dup-suppress "+className(e.Sync), "transport",
				fmt.Sprintf(`"from":%d,"seq":%d`, e.Peer, e.Aux))
		}
	}

	// Faults or lock requests still open at the end of the trace (their
	// resolution fell outside the ring bound, or the run was cut) render
	// as instants so the data is not lost.
	for _, e := range faultStart {
		instant(e, fmt.Sprintf("fault p%d (unresolved)", e.Page), "fault", "")
	}
	for _, e := range lockReq {
		instant(e, fmt.Sprintf("lock %d request (ungranted)", e.Sync), "lock", "")
	}

	fmt.Fprintf(bw, "\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// switchFlowBase keeps thread-switch flow ids out of the message-id
// space (message ids are a small dense counter).
const switchFlowBase = uint64(1) << 40

// usec renders a virtual time as microseconds with nanosecond precision,
// the unit Chrome trace timestamps use. Fixed %d.%03d formatting keeps
// the output byte-stable (no float rounding).
func usec(t sim.Time) string {
	neg := ""
	if t < 0 {
		neg, t = "-", -t
	}
	return fmt.Sprintf("%s%d.%03d", neg, int64(t)/1000, int64(t)%1000)
}

// className names a message class for export. The mapping mirrors
// netsim's Table 2 classes (trace cannot import netsim — netsim emits
// into trace); the netsim class-guard test keeps the two in sync.
func className(class int32) string {
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

// reasonName names a block reason. Values mirror core's Reason
// constants (fault, lock, barrier).
func reasonName(r int64) string {
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

// WriteChromeFile writes the recorder's Chrome trace to path and
// confirms it on out with the event count, and the count the ring bound
// dropped when there were any: a bounded trace is a partial one.
func WriteChromeFile(out io.Writer, path string, r *Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, r); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d trace events to %s (load at ui.perfetto.dev)", r.Len(), path)
	if d := r.Dropped(); d > 0 {
		fmt.Fprintf(out, "; the ring bound dropped the %d oldest", d)
	}
	fmt.Fprintln(out)
	return nil
}
