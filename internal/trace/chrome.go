package trace

import (
	"fmt"
	"io"
	"os"
	"slices"

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
	c := &chromeWriter{w: w, tpn: int64(r.ThreadsPerNode()), buf: make([]byte, 0, chromeFlush+1024), open: `{"name":"`}
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

	for e := range r.ordered() {
		switch e.Kind {
		case KindFaultStart:
			faultStart[pageKey{e.Node, e.Page}] = e
		case KindFaultResolve:
			k := pageKey{e.Node, e.Page}
			if s, ok := faultStart[k]; ok {
				delete(faultStart, k)
				// On the faulting thread, even if resolve ran in handler context.
				c.nameN("fault p", e.Page).span(catFault, s, e, c.tid(s))
			} else {
				c.nameN("fault p", e.Page).str(" resolve").instant(e, catFault).arg("diffs", e.Arg).end()
			}
		case KindTwinCreate:
			c.nameN("twin p", e.Page).instant(e, catDiff).end()
		case KindDiffCreate:
			c.nameN("diff p", e.Page).str(" create").instant(e, catDiff).arg("bytes", e.Arg).arg("interval", e.Aux).end()
		case KindDiffApply:
			c.nameN("diff p", e.Page).str(" apply").instant(e, catDiff).
				arg("from", int64(e.Peer)).arg("interval", e.Arg).arg("bytes", e.Aux).end()
		case KindLockRequest:
			lockReq[syncKey{e.Node, e.Sync}] = e
		case KindLockForward:
			c.nameN("lock ", e.Sync).str(" forward").instant(e, catLock).arg("requester", e.Arg).arg("to", int64(e.Peer)).end()
		case KindLockGrant:
			c.nameN("lock ", e.Sync).str(" grant").instant(e, catLock).end()
		case KindLockAcquire:
			k := syncKey{e.Node, e.Sync}
			c.nameN("lock ", e.Sync).str(" acquire")
			if s, ok := lockReq[k]; ok && e.Aux >= 2 {
				delete(lockReq, k)
				c.span(catLock, s, e, c.tid(e))
			} else {
				c.instant(e, catLock).arg("local", 1).end()
			}
		case KindLockRelease:
			c.nameN("lock ", e.Sync).str(" release").instant(e, catLock).end()
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
				c.nameN(pre, e.Sync).str(" wait").span(catBarrier, a, e, c.tid(a))
			}
			barrierArrive[k] = barrierArrive[k][:0] // the next episode reuses the slice
		case KindThreadSwitch:
			// Flow arrow from the switched-out thread to the dispatched
			// one, plus an instant marking the switch cost point.
			from, id := *e, int64(switchFlowBase+e.Seq)
			from.Thread = int32(e.Arg)
			c.name("switch").str(`","cat":"sched","ph":"s","id":`).int(id).at(e, c.tid(&from)).end()
			c.name("switch").str(`","cat":"sched","ph":"f","bp":"e","id":`).int(id).at(e, c.tid(e)).end()
			c.name("switch in").instant(e, catSched).key("from").str(`"g`).int(e.Arg).str(`"`).end()
		case KindThreadBlock:
			c.name("block").instant(e, catSched).key("reason").str(`"`).reason(e.Arg).str(`"`).end()
		case KindThreadUnblock:
			c.name("unblock").instant(e, catSched).key("reason").str(`"`).reason(e.Arg).str(`"`).end()
		case KindMsgSend, KindMsgDeliver:
			// About half of a run's events: the protocol track (tid 0)
			// and the args' opening join the constant before the size.
			ph := `","cat":"msg","ph":"s","id":`
			if e.Kind == KindMsgDeliver {
				ph = `","cat":"msg","ph":"f","bp":"e","id":`
			}
			c.name("msg ").class(e.Sync).str(ph).int(e.Aux).str(`,"ts":`).usec(e.T).
				str(`,"pid":`).int(int64(e.Node)).str(`,"tid":0,"args":{"bytes":`).int(e.Arg).str("}}")
		case KindMsgDrop:
			c.name("drop ").class(e.Sync).instant(e, catInject).
				arg("to", int64(e.Peer)).arg("bytes", e.Arg).arg("id", e.Aux).end()
		case KindMsgDup:
			c.name("dup ").class(e.Sync).instant(e, catInject).
				arg("to", int64(e.Peer)).arg("bytes", e.Arg).arg("id", e.Aux).end()
		case KindRetransmit:
			c.name("retransmit ").class(e.Sync).instant(e, catTransport).
				arg("to", int64(e.Peer)).arg("id", e.Aux).arg("attempt", e.Arg).end()
		case KindDupSuppress:
			c.name("dup-suppress ").class(e.Sync).instant(e, catTransport).arg("from", int64(e.Peer)).arg("id", e.Aux).end()
		}
	}

	// Faults or lock requests still open at the end of the trace (their
	// resolution fell outside the ring bound, or the run was cut) render
	// as instants so the data is not lost, each kind in (T, Seq) order.
	for _, e := range openEvents(faultStart) {
		c.nameN("fault p", e.Page).str(" (unresolved)").instant(e, catFault).end()
	}
	for _, e := range openEvents(lockReq) {
		c.nameN("lock ", e.Sync).str(" request (ungranted)").instant(e, catLock).end()
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
// escaped and nothing goes through fmt, strconv or an intermediate
// string; constant text that always runs together (a category with its
// phase) is one string. Its methods chain: name, the rest of the name,
// instant or span, arg, end.
type chromeWriter struct {
	w    io.Writer
	err  error // the first write error; later writes are skipped
	buf  []byte
	open string // what opens an event: its separator and name key
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

// digits3 holds "000" through "999", three bytes a number.
var digits3 = func() (d [3000]byte) {
	for i := range 1000 {
		d[3*i], d[3*i+1], d[3*i+2] = byte('0'+i/100), byte('0'+i/10%10), byte('0'+i%10)
	}
	return d
}()

// decimal writes u's digits, and a minus sign if neg, so that they end
// at b[end], and returns where they start: three digits a step from
// digits3, the leading group's zeros skipped.
func decimal(b *[24]byte, end int, u uint64, neg bool) int {
	for ; u >= 1000; u /= 1000 {
		d := 3 * (u % 1000)
		end -= 3
		b[end], b[end+1], b[end+2] = digits3[d], digits3[d+1], digits3[d+2]
	}
	d := 3 * u
	end -= 3
	b[end], b[end+1], b[end+2] = digits3[d], digits3[d+1], digits3[d+2]
	if u < 100 {
		end++
	}
	if u < 10 {
		end++
	}
	if neg {
		end--
		b[end] = '-'
	}
	return end
}

// abs is |v|; a uint64 holds the minimum int64's too.
func abs(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// int appends v in decimal, one append and no strconv; a single digit
// skips the table.
func (c *chromeWriter) int(v int64) *chromeWriter {
	if uint64(v) < 10 {
		c.buf = append(c.buf, byte('0'+v))
		return c
	}
	var b [24]byte
	c.buf = append(c.buf, b[decimal(&b, len(b), abs(v), v < 0):]...)
	return c
}

// usec renders a virtual time as microseconds with nanosecond precision,
// the unit Chrome trace timestamps use: integer digits, a point and
// exactly three more, so the output is byte-stable (no float rounding).
// It is one append.
func (c *chromeWriter) usec(t sim.Time) *chromeWriter {
	var b [24]byte
	u := abs(int64(t))
	d := 3 * (u % 1000)
	b[20], b[21], b[22], b[23] = '.', digits3[d], digits3[d+1], digits3[d+2]
	c.buf = append(c.buf, b[decimal(&b, 20, u/1000, t < 0):]...)
	return c
}

// name opens an event and begins its name.
func (c *chromeWriter) name(s string) *chromeWriter {
	if len(c.buf) >= chromeFlush {
		c.flush()
	}
	c.str(c.open).str(s)
	c.open = ",\n{\"name\":\""
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

// category is an event category's constant text for an instant and for
// a span: the name's closing quote, the category and the phase.
type category struct{ instant, span string }

func newCategory(name string) category {
	return category{`","cat":"` + name + `","ph":"i","s":"t"`, `","cat":"` + name + `","ph":"X","ts":`}
}

var (
	catFault     = newCategory("fault")
	catDiff      = newCategory("diff")
	catLock      = newCategory("lock")
	catBarrier   = newCategory("barrier")
	catSched     = newCategory("sched")
	catInject    = newCategory("fault-inject")
	catTransport = newCategory("transport")
)

// instant closes the name and makes the event an instant on e's track.
func (c *chromeWriter) instant(e *Event, cat category) *chromeWriter {
	return c.str(cat.instant).at(e, c.tid(e))
}

// span closes the name and the event: a complete ("X") slice from start
// to end on start's node and the given track.
func (c *chromeWriter) span(cat category, start, end *Event, tid int64) {
	c.str(cat.span).usec(start.T).str(`,"dur":`).usec(end.T - start.T).
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
