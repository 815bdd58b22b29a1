package trace

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

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
	c := &chromeWriter{w: w, tpn: int64(r.ThreadsPerNode()), buf: make([]byte, 0, chromeFlush+1024)}
	c.str("{\"traceEvents\":[\n")

	// Metadata: name and order the node processes and their tracks.
	for n := int64(0); n < int64(r.Nodes()); n++ {
		c.name("process_name").str(`","ph":"M","pid":`).int(n).str(`,"tid":0,"args":{"name":"node `).int(n).str(`"}}`)
		c.name("process_sort_index").str(`","ph":"M","pid":`).int(n).str(`,"tid":0,"args":{"sort_index":`).int(n).str(`}}`)
		c.name("thread_name").str(`","ph":"M","pid":`).int(n).str(`,"tid":0,"args":{"name":"protocol"}}`)
		for l := int64(0); l < c.tpn; l++ {
			c.name("thread_name").str(`","ph":"M","pid":`).int(n).str(`,"tid":`).int(l + 1).
				str(`,"args":{"name":"thread g`).int(n*c.tpn + l).str(`"}}`)
		}
	}

	type pageKey struct{ node, page int32 }
	type syncKey struct{ node, sync int32 }
	faultStart := make(map[pageKey]*Event)
	lockReq := make(map[syncKey]*Event)
	barrierArrive := make(map[syncKey][]*Event)

	for _, e := range r.ordered() {
		switch e.Kind {
		case KindFaultStart:
			faultStart[pageKey{e.Node, e.Page}] = e
		case KindFaultResolve:
			k := pageKey{e.Node, e.Page}
			if s, ok := faultStart[k]; ok {
				delete(faultStart, k)
				// On the faulting thread, even if resolve ran in handler context.
				c.nameN("fault p", e.Page).span("fault", s, e, c.tid(s))
			} else {
				c.nameN("fault p", e.Page).str(" resolve").instant(e, "fault").arg("diffs", e.Arg).end()
			}
		case KindTwinCreate:
			c.nameN("twin p", e.Page).instant(e, "diff").end()
		case KindDiffCreate:
			c.nameN("diff p", e.Page).str(" create").instant(e, "diff").arg("bytes", e.Arg).arg("interval", e.Aux).end()
		case KindDiffApply:
			c.nameN("diff p", e.Page).str(" apply").instant(e, "diff").
				arg("from", int64(e.Peer)).arg("interval", e.Arg).arg("bytes", e.Aux).end()
		case KindLockRequest:
			lockReq[syncKey{e.Node, e.Sync}] = e
		case KindLockForward:
			c.nameN("lock ", e.Sync).str(" forward").instant(e, "lock").arg("requester", e.Arg).arg("to", int64(e.Peer)).end()
		case KindLockGrant:
			c.nameN("lock ", e.Sync).str(" grant").instant(e, "lock").end()
		case KindLockAcquire:
			k := syncKey{e.Node, e.Sync}
			c.nameN("lock ", e.Sync).str(" acquire")
			if s, ok := lockReq[k]; ok && e.Aux >= 2 {
				delete(lockReq, k)
				c.span("lock", s, e, c.tid(e))
			} else {
				c.instant(e, "lock").arg("local", 1).end()
			}
		case KindLockRelease:
			c.nameN("lock ", e.Sync).str(" release").instant(e, "lock").end()
		case KindBarrierArrive:
			if e.Aux == BarrierReduce {
				break // a reduction has no release to end a slice
			}
			k := syncKey{e.Node, e.Sync}
			barrierArrive[k] = append(barrierArrive[k], e)
		case KindBarrierRelease:
			k := syncKey{e.Node, e.Sync}
			pre := "barrier "
			if e.Aux == 1 {
				pre = "local barrier "
			}
			for _, a := range barrierArrive[k] {
				c.nameN(pre, e.Sync).str(" wait").span("barrier", a, e, c.tid(a))
			}
			barrierArrive[k] = barrierArrive[k][:0] // the next episode reuses the slice
		case KindThreadSwitch:
			// Flow arrow from the switched-out thread to the dispatched
			// one, plus an instant marking the switch cost point.
			from, id := *e, int64(switchFlowBase+e.Seq)
			from.Thread = int32(e.Arg)
			c.name("switch").str(`","cat":"sched","ph":"s","id":`).int(id).at(e, c.tid(&from)).end()
			c.name("switch").str(`","cat":"sched","ph":"f","bp":"e","id":`).int(id).at(e, c.tid(e)).end()
			c.name("switch in").instant(e, "sched").key("from").str(`"g`).int(e.Arg).str(`"`).end()
		case KindThreadBlock:
			c.name("block").instant(e, "sched").key("reason").str(`"`).reason(e.Arg).str(`"`).end()
		case KindThreadUnblock:
			c.name("unblock").instant(e, "sched").key("reason").str(`"`).reason(e.Arg).str(`"`).end()
		case KindMsgSend:
			c.name("msg ").class(e.Sync).str(`","cat":"msg","ph":"s","id":`).int(e.Aux).at(e, 0).arg("bytes", e.Arg).end()
		case KindMsgDeliver:
			c.name("msg ").class(e.Sync).str(`","cat":"msg","ph":"f","bp":"e","id":`).int(e.Aux).at(e, 0).arg("bytes", e.Arg).end()
		case KindMsgDrop:
			c.name("drop ").class(e.Sync).instant(e, "fault-inject").
				arg("to", int64(e.Peer)).arg("bytes", e.Arg).arg("id", e.Aux).end()
		case KindMsgDup:
			c.name("dup ").class(e.Sync).instant(e, "fault-inject").
				arg("to", int64(e.Peer)).arg("bytes", e.Arg).arg("id", e.Aux).end()
		case KindRetransmit:
			c.name("retransmit ").class(e.Sync).instant(e, "transport").
				arg("to", int64(e.Peer)).arg("seq", e.Aux).arg("attempt", e.Arg).end()
		case KindDupSuppress:
			c.name("dup-suppress ").class(e.Sync).instant(e, "transport").arg("from", int64(e.Peer)).arg("seq", e.Aux).end()
		case KindModeChange:
			c.nameN("mode p", e.Page).instant(e, "adapt").
				arg("mode", e.Arg).arg("owner", int64(e.Peer)).arg("epoch", e.Aux).end()
		}
	}

	// Faults or lock requests still open at the end of the trace (their
	// resolution fell outside the ring bound, or the run was cut) render
	// as instants so the data is not lost, each kind in (T, Seq) order.
	for _, e := range openEvents(faultStart) {
		c.nameN("fault p", e.Page).str(" (unresolved)").instant(e, "fault").end()
	}
	for _, e := range openEvents(lockReq) {
		c.nameN("lock ", e.Sync).str(" request (ungranted)").instant(e, "lock").end()
	}

	c.str("\n],\"displayTimeUnit\":\"ms\"}\n")
	c.flush()
	return c.err
}

// openEvents returns m's values in (T, Seq) order.
func openEvents[K comparable](m map[K]*Event) []*Event {
	out := make([]*Event, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	slices.SortFunc(out, cmpEvents)
	return out
}

// chromeFlush is the buffered size at which chromeWriter writes out.
const chromeFlush = 64 << 10

// chromeWriter renders trace events by appending to one reused buffer,
// written out between events once it passes chromeFlush. Every name and
// string value is literal ASCII, a class or reason name, or a decimal
// integer — text that JSON quoting leaves as it is — so nothing is
// escaped and nothing goes through fmt or an intermediate string. Its
// methods chain: name, the rest of the name, instant or span, arg, end.
type chromeWriter struct {
	w    io.Writer
	err  error // the first write error; later writes are skipped
	buf  []byte
	sep  string // between events: empty before the first
	tpn  int64  // threads per node
	args bool   // the open event has an "args" object
}

func (c *chromeWriter) flush() {
	if c.err == nil {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

func (c *chromeWriter) str(s string) *chromeWriter {
	c.buf = append(c.buf, s...)
	return c
}

func (c *chromeWriter) int(v int64) *chromeWriter {
	c.buf = strconv.AppendInt(c.buf, v, 10)
	return c
}

// usec renders a virtual time as microseconds with nanosecond precision,
// the unit Chrome trace timestamps use: integer digits, a point and
// exactly three more, so the output is byte-stable (no float rounding).
func (c *chromeWriter) usec(t sim.Time) *chromeWriter {
	if t < 0 {
		c.str("-")
		t = -t
	}
	ns := int64(t) % 1000
	return c.int(int64(t) / 1000).str(".").int(ns / 100).int(ns / 10 % 10).int(ns % 10)
}

// name opens an event and begins its name.
func (c *chromeWriter) name(s string) *chromeWriter {
	if len(c.buf) >= chromeFlush {
		c.flush()
	}
	c.str(c.sep).str(`{"name":"`).str(s)
	c.sep = ",\n"
	return c
}

func (c *chromeWriter) nameN(s string, n int32) *chromeWriter { return c.name(s).int(int64(n)) }

// classNames mirrors netsim's Table 2 classes (trace cannot import
// netsim — netsim emits into trace; the netsim class-guard test keeps
// the two in sync), reasonNames the block reasons.
var (
	classNames  = []string{"barrier", "lock", "diff"}
	reasonNames = []string{ReasonFault: "fault", ReasonLock: "lock", ReasonBarrier: "barrier"}
)

// enum appends names[v], or other and the number where v has no name.
func (c *chromeWriter) enum(names []string, other string, v int64) *chromeWriter {
	if v >= 0 && v < int64(len(names)) && names[v] != "" {
		return c.str(names[v])
	}
	return c.str(other).int(v)
}

func (c *chromeWriter) class(v int32) *chromeWriter  { return c.enum(classNames, "class", int64(v)) }
func (c *chromeWriter) reason(v int64) *chromeWriter { return c.enum(reasonNames, "reason", v) }

// tid maps an event to its track: 0 for handler context, else the
// thread's local id plus one.
func (c *chromeWriter) tid(e *Event) int64 {
	if e.Thread < 0 {
		return 0
	}
	return int64(e.Thread) - int64(e.Node)*c.tpn + 1
}

// at appends e's timestamp and process and the given track.
func (c *chromeWriter) at(e *Event, tid int64) *chromeWriter {
	return c.str(`,"ts":`).usec(e.T).str(`,"pid":`).int(int64(e.Node)).str(`,"tid":`).int(tid)
}

// instant closes the name and makes the event an instant on e's track.
func (c *chromeWriter) instant(e *Event, cat string) *chromeWriter {
	return c.str(`","cat":"`).str(cat).str(`","ph":"i","s":"t"`).at(e, c.tid(e))
}

// span closes the name and the event: a complete ("X") slice from start
// to end on start's node and the given track.
func (c *chromeWriter) span(cat string, start, end *Event, tid int64) {
	c.str(`","cat":"`).str(cat).str(`","ph":"X","ts":`).usec(start.T).str(`,"dur":`).usec(end.T - start.T).
		str(`,"pid":`).int(int64(start.Node)).str(`,"tid":`).int(tid).str("}")
}

// key begins an argument of the open event, opening its "args" object
// on the first; the caller appends the value.
func (c *chromeWriter) key(k string) *chromeWriter {
	if c.args {
		c.str(`,"`)
	} else {
		c.str(`,"args":{"`)
		c.args = true
	}
	return c.str(k).str(`":`)
}

func (c *chromeWriter) arg(k string, v int64) *chromeWriter { return c.key(k).int(v) }

// end closes the open event, and its "args" object if it has one.
func (c *chromeWriter) end() {
	if c.args {
		c.str("}")
		c.args = false
	}
	c.str("}")
}

// switchFlowBase keeps thread-switch flow ids out of the message-id
// space (message ids are a small dense counter).
const switchFlowBase = uint64(1) << 40

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
