package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file keeps the two orderings the engine used before its heaps —
// the O(P) scan over all procs and the container/heap queue of boxed
// events — verbatim, as the references the differential tests below hold
// the runnable-proc heap and the value event heap to. Both orders are
// total ((clock, id) and (at, seq)), so the replacements may differ in
// how they reach the next entity and never in which one it is.

// minProcNext returns the runnable proc with the lowest clock (nil if
// none; ties break by processor index, keeping dispatch deterministic)
// and, from the same scan, the lowest clock among the other runnable
// procs — the processor contribution to the winner's causality horizon.
func (e *Engine) minProcNext() (*Proc, Time) {
	var best *Proc
	next := MaxTime
	for _, p := range e.procs {
		if !p.runnable() {
			continue
		}
		switch {
		case best == nil:
			best = p
		case p.clock < best.clock:
			next = minTime(next, best.clock)
			best = p
		default:
			next = minTime(next, p.clock)
		}
	}
	return best, next
}

// runScanReference is the sequential loop of Engine.Run as it was when
// minProcNext chose every dispatch. It leaves e.running clear, so
// enqueue does not feed the heap this loop never reads.
func (e *Engine) runScanReference() error {
	futile := 0
	for e.live > 0 || e.events.Len() > 0 {
		p, next := e.minProcNext()
		evAt := e.events.peekTime()

		// Events run first on ties so handlers at time T are applied
		// before any task continues at T.
		if p == nil || evAt <= p.clock {
			if evAt == MaxTime {
				return e.deadlockErr("no runnable entity and no pending event")
			}
			ev := e.events.pop()
			e.now = ev.at
			wakesBefore, liveBefore := e.wakes, e.live
			ev.fn()
			if e.live > 0 && e.wakes == wakesBefore && e.live == liveBefore {
				futile++
				if e.futileLimit > 0 && futile >= e.futileLimit {
					return e.deadlockErr(fmt.Sprintf(
						"livelock: %d consecutive events without a task dispatch or wake", futile))
				}
			} else {
				futile = 0
			}
			continue
		}

		futile = 0
		e.dispatchProc(p, minTime(evAt, next))
	}
	return nil
}

// refEventQueue is the min-heap of boxed events ordered by (at, seq)
// that eventQueue replaced.
type refEventQueue []*event

func (q refEventQueue) Len() int { return len(q) }

func (q refEventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refEventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *refEventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *refEventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (q refEventQueue) peekTime() Time {
	if len(q) == 0 {
		return MaxTime
	}
	return q[0].at
}

func (q *refEventQueue) push(ev *event) { heap.Push(q, ev) }

func (q *refEventQueue) pop() *event { return heap.Pop(q).(*event) }

// diffProcCounts are the engine sizes the differential tests run at: a
// lone proc, the smallest heap with a runner-up, the paper's cluster
// sizes, and the scaleout point the benchmark times.
var diffProcCounts = []int{1, 2, 8, 16, 192}

// TestEventQueueMatchesReference drives the value heap and the boxed
// reference with one random schedule — bursts of pushes at a handful of
// instants, so most events tie on at, interleaved with pops the way a
// run interleaves them — and requires the same (at, seq) from every pop
// and every peek, down to the empty queue.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refEventQueue
		var now Time
		seq := uint64(0)
		fired := 0
		compare := func() {
			t.Helper()
			if q.peekTime() != ref.peekTime() || q.Len() != ref.Len() {
				t.Fatalf("seed %d: peek %v len %d, reference peek %v len %d",
					seed, q.peekTime(), q.Len(), ref.peekTime(), ref.Len())
			}
		}
		pop := func() {
			t.Helper()
			got, want := q.pop(), ref.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: popped (%v, %d), reference (%v, %d)", seed, got.at, got.seq, want.at, want.seq)
			}
			if staleHandlers(&q) != 0 {
				t.Fatalf("seed %d: vacated slot still holds a handler", seed)
			}
			got.fn()
			now = got.at
		}
		for step := 0; step < 4000; step++ {
			if q.Len() == 0 || rng.Intn(5) < 2+step%2 {
				for burst := 1 + rng.Intn(4); burst > 0; burst-- {
					seq++
					ev := event{at: now + Time(rng.Intn(4))*us, seq: seq, fn: func() { fired++ }}
					q.push(ev)
					ref.push(&ev)
				}
			} else {
				pop()
			}
			compare()
		}
		for q.Len() > 0 {
			pop()
			compare()
		}
		if fired != int(seq) {
			t.Fatalf("seed %d: %d handlers ran, %d events pushed", seed, fired, seq)
		}
	}
}

// staleHandlers counts the handlers q still holds outside its pending
// events: in a run's consumed slots or past its end.
func staleHandlers(q *eventQueue) int {
	n := 0
	for _, r := range q.runs {
		for i, ev := range r.evs[:cap(r.evs)] {
			if (i < r.head || i >= len(r.evs)) && ev.fn != nil {
				n++
			}
		}
	}
	return n
}

// TestEventQueueManyPendingMatchesReference drives the queue the way the
// many-writer scaleout run does, with thousands of events pending: 192
// receivers each fed a strictly increasing stream of deliveries (netsim's
// ingress serialization), broadcasts paced by one sender's egress, local
// events a fixed cost ahead that tie on at, and on even seeds a share of
// jittered deliveries that land out of order. Every pop and peek must
// match the reference.
func TestEventQueueManyPendingMatchesReference(t *testing.T) {
	const receivers = 192
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refEventQueue
		ingress := make([]Time, receivers)
		var now Time
		var seq uint64
		peak := 0
		push := func(at Time) {
			seq++
			ev := event{at: at, seq: seq, fn: func() {}}
			q.push(ev)
			ref.push(&ev)
		}
		pop := func() {
			t.Helper()
			got, want := q.pop(), ref.pop()
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: popped (%v, %d), reference (%v, %d) with %d pending",
					seed, got.at, got.seq, want.at, want.seq, q.Len())
			}
			now = got.at
		}
		for step := 0; step < 40000; step++ {
			if q.Len() == 0 || q.Len() < 4000 && rng.Intn(3) > 0 {
				switch k := rng.Intn(10); {
				case k < 6:
					to := rng.Intn(receivers)
					at := max(now+209*us, ingress[to]) + 128*us
					ingress[to] = at
					if k == 0 && seed%2 == 0 {
						at += Time(rng.Intn(300)) * us
					}
					push(at)
				case k < 8:
					at := now + 209*us
					for n := 1 + rng.Intn(64); n > 0; n-- {
						at += 128 * us
						push(at)
					}
				default:
					push(now + Time(rng.Intn(3))*10*us)
				}
			} else {
				pop()
			}
			if q.peekTime() != ref.peekTime() || q.Len() != ref.Len() {
				t.Fatalf("seed %d: peek %v len %d, reference peek %v len %d",
					seed, q.peekTime(), q.Len(), ref.peekTime(), ref.Len())
			}
			peak = max(peak, q.Len())
		}
		for q.Len() > 0 {
			pop()
		}
		if staleHandlers(&q) != 0 {
			t.Fatalf("seed %d: the drained queue still holds handlers", seed)
		}
		if peak < 2000 {
			t.Fatalf("seed %d: only %d events were ever pending", seed, peak)
		}
	}
}

// checkReadyHeap verifies the heap's invariants against the engine's
// procs: the members are exactly the runnable procs, each knows its
// slot, every key is its proc's clock, no child sorts before its parent
// — and the root and its runner-up clock are what the reference scan
// over all procs returns.
func checkReadyHeap(t *testing.T, e *Engine, what string) {
	t.Helper()
	h := e.ready
	members := 0
	for _, p := range e.procs {
		if !p.runnable() {
			if p.hpos != -1 {
				t.Fatalf("%s: idle proc %d has hpos %d", what, p.id, p.hpos)
			}
			continue
		}
		members++
		if p.hpos < 0 || p.hpos >= len(h) || h[p.hpos].p != p {
			t.Fatalf("%s: runnable proc %d has hpos %d, not its slot", what, p.id, p.hpos)
		}
		if h[p.hpos].clock != p.clock {
			t.Fatalf("%s: proc %d keyed %v with clock %v", what, p.id, h[p.hpos].clock, p.clock)
		}
	}
	if members != len(h) {
		t.Fatalf("%s: heap holds %d procs, %d are runnable", what, len(h), members)
	}
	for i := 1; i < len(h); i++ {
		if h[i].before(h[(i-1)/2]) {
			t.Fatalf("%s: slot %d (%v, proc %d) sorts before its parent", what, i, h[i].clock, h[i].p.id)
		}
	}
	best, next := e.minProcNext()
	if h.top() != best || h.second() != next {
		id := func(p *Proc) int {
			if p == nil {
				return -1
			}
			return p.id
		}
		t.Fatalf("%s: heap says (proc %d, next %v), the scan says (proc %d, next %v)",
			what, id(h.top()), h.second(), id(best), next)
	}
}

// TestReadyHeapMatchesScan exercises the runnable-proc heap directly:
// random pushes, clock moves in both directions and removals (root,
// last slot, sole member, interior) over clocks drawn from four values,
// so most keys tie and the id decides — checking every invariant, and
// the (proc, horizon) answer against minProcNext, after each operation.
func TestReadyHeapMatchesScan(t *testing.T) {
	for _, nprocs := range diffProcCounts {
		rng := rand.New(rand.NewSource(int64(nprocs)))
		e := NewEngine()
		for i := 0; i < nprocs; i++ {
			e.AddProc(0)
		}
		task := &Task{}
		for step := 0; step < 200+40*nprocs; step++ {
			p := e.procs[rng.Intn(nprocs)]
			what := fmt.Sprintf("procs=%d step %d proc %d", nprocs, step, p.id)
			switch {
			case !p.runnable():
				p.clock = Time(rng.Intn(4)) * us
				p.current = task
				e.ready.push(p)
				what += " push"
			case rng.Intn(3) == 0:
				p.current = nil
				e.ready.remove(p)
				what += " remove"
			default:
				p.clock = Time(rng.Intn(4)) * us
				e.ready.update(p)
				what += " update"
			}
			checkReadyHeap(t, e, what)
		}
		// reset rebuilds from whatever is runnable, stale slots or not.
		for _, p := range e.procs {
			p.hpos = rng.Intn(nprocs)
		}
		e.ready.reset(e.procs)
		checkReadyHeap(t, e, fmt.Sprintf("procs=%d reset", nprocs))
		for e.ready.top() != nil {
			p := e.ready.top()
			p.current = nil
			e.ready.remove(p)
			checkReadyHeap(t, e, fmt.Sprintf("procs=%d drain", nprocs))
		}
	}
}

// The whole-engine differential: a seeded random program — tasks that
// advance in steps of 0–2 µs (so clocks tie constantly), yield, sleep
// on a timer, post events at instants other events share, wake a
// napping task of another proc from task context, and spawn children
// mid-run — runs once under Engine.Run and once under the scan loop, and
// everything either run can observe must agree entry for entry: the
// horizon and clock every operation resumes with, every event's instant
// and turn, and every switch, idle end and slice the hooks see.

type diffOp struct {
	kind   int // opAdvance ...
	d      Time
	target int // opNudge: index of the task to wake
}

const (
	opAdvance = iota
	opYield
	opSleep // schedule own wake d ahead, block
	opPost  // schedule a logging event d ahead
	opNap   // block until nudged, or until a fallback timer d ahead
	opNudge // wake the target task if it is napping
	opSpawn // spawn a child on proc target
	numDiffOps
)

type diffProgram struct {
	nprocs int
	tasks  [][]diffOp // spawned before Run, task i on proc i % nprocs
	child  []diffOp   // what every opSpawn child runs
}

func genDiffProgram(rng *rand.Rand, nprocs int) diffProgram {
	ntasks := 2 * nprocs
	ops := func(n int, spawn bool) []diffOp {
		out := make([]diffOp, n)
		for i := range out {
			op := diffOp{kind: rng.Intn(numDiffOps), d: Time(rng.Intn(3)) * us}
			switch op.kind {
			case opNudge:
				op.target = rng.Intn(ntasks)
			case opSpawn:
				if !spawn {
					op.kind = opAdvance
				}
				op.target = rng.Intn(nprocs)
			case opSleep, opNap:
				op.d += Time(rng.Intn(3)) * us
			}
			out[i] = op
		}
		return out
	}
	prog := diffProgram{nprocs: nprocs, child: ops(6, false)}
	per := max(8, 600/ntasks)
	for i := 0; i < ntasks; i++ {
		prog.tasks = append(prog.tasks, ops(per, true))
	}
	return prog
}

type diffEntry struct {
	kind       byte
	a, b       int
	t1, t2, t3 Time
}

// run executes the program on a fresh engine under loop and returns the
// log of everything observable.
func (prog diffProgram) run(t *testing.T, loop func(*Engine) error) []diffEntry {
	t.Helper()
	e := NewEngine()
	var log []diffEntry
	roots := make([]*Task, len(prog.tasks))
	napping := make([]bool, len(prog.tasks))
	posted := 0

	var body func(self int, ops []diffOp) func(*Task)
	body = func(self int, ops []diffOp) func(*Task) {
		return func(tk *Task) {
			for _, op := range ops {
				switch op.kind {
				case opAdvance:
					tk.Advance(op.d)
				case opYield:
					tk.Yield()
				case opSleep:
					tk.Schedule(tk.Now()+op.d, func() { e.Wake(tk) })
					tk.Block(Reason(1))
				case opPost:
					posted++
					id := posted
					tk.Schedule(tk.Now()+op.d, func() {
						log = append(log, diffEntry{kind: 'e', a: id, t1: e.Now()})
					})
				case opNap:
					if self < 0 {
						continue // children are not nudge targets
					}
					napping[self] = true
					tk.Schedule(tk.Now()+op.d, func() {
						if napping[self] {
							napping[self] = false
							e.Wake(tk)
						}
					})
					tk.Block(Reason(2))
				case opNudge:
					if napping[op.target] {
						napping[op.target] = false
						e.WakeAt(roots[op.target], tk.Now())
					}
				case opSpawn:
					e.Spawn(e.procs[op.target], "child", body(-1, prog.child))
				}
				log = append(log, diffEntry{'t', tk.proc.id, tk.id, tk.Now(), tk.horizon, 0})
			}
		}
	}

	for i := 0; i < prog.nprocs; i++ {
		p := e.AddProc(Time(i%2) * us)
		p.SetLIFO(i%3 == 2)
		p.SetHooks(ProcHooks{
			OnSwitch: func(from, to *Task) {
				log = append(log, diffEntry{'s', from.id, to.id, p.clock, 0, 0})
			},
			OnIdleEnd: func(start, end Time, task *Task) {
				log = append(log, diffEntry{'i', p.id, task.id, start, end, 0})
			},
			OnSlice: func(task *Task, start, end Time) {
				log = append(log, diffEntry{'l', p.id, task.id, start, end, task.horizon})
			},
		})
	}
	for i, ops := range prog.tasks {
		roots[i] = e.Spawn(e.procs[i%prog.nprocs], "root", body(i, ops))
	}
	if err := loop(e); err != nil {
		t.Fatal(err)
	}
	for _, p := range e.procs {
		log = append(log, diffEntry{'c', p.id, 0, p.clock, 0, 0})
	}
	return log
}

func TestDispatchMatchesScanLoop(t *testing.T) {
	for _, nprocs := range diffProcCounts {
		for seed := int64(1); seed <= 6; seed++ {
			prog := genDiffProgram(rand.New(rand.NewSource(seed<<8+int64(nprocs))), nprocs)
			want := prog.run(t, (*Engine).runScanReference)
			got := prog.run(t, (*Engine).Run)
			if len(want) < 100*min(nprocs, 6) {
				t.Fatalf("procs=%d seed %d: the program logged %d entries — too short to mean anything",
					nprocs, seed, len(want))
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("procs=%d seed %d: entry %d is %+v under Run, %+v under the scan loop",
						nprocs, seed, i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("procs=%d seed %d: %d entries under Run, %d under the scan loop",
					nprocs, seed, len(got), len(want))
			}
		}
	}
}
