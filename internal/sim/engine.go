package sim

import (
	"errors"
	"fmt"
	"strings"
)

// ErrDeadlock is returned by Engine.Run when live tasks remain but no
// entity is runnable and no event is pending, or when the futile-event
// watchdog concludes the event queue is self-perpetuating without ever
// readying a task (a livelock — e.g. an unbounded retransmission timer
// whose receiver is gone).
var ErrDeadlock = errors.New("sim: deadlock")

// defaultFutileLimit bounds how many consecutive events may run without
// dispatching or waking any task before Run declares a livelock. Real
// workloads ready a task every handful of events; a million futile
// events is unambiguous pathology while staying cheap to count.
const defaultFutileLimit = 1 << 20

// Engine is a sequential discrete-event simulator. It owns the event queue
// and all processors, and dispatches exactly one entity at a time in
// virtual-time order. An Engine is not safe for concurrent use; all
// interaction happens from the goroutine that calls Run and from task
// bodies while the engine has resumed them.
type Engine struct {
	procs   []*Proc
	events  eventQueue
	ready   readyHeap // runnable procs, sequential loop only
	now     Time
	seq     uint64
	live    int
	ntasks  int
	tasks   []*Task
	running bool
	cur     *Task // the task executing in the sequential loop, nil in engine context

	wakes       uint64 // total WakeAt calls, for the futile-event watchdog
	futileLimit int
	reasonName  func(Reason) string

	// Conservative lookahead (SetConservative). windowed selects the run
	// loop; workers is the OS-thread fan-out per window; lookahead is the
	// cross-proc latency lower bound defining the window width, and the
	// sequential loop's run-ahead; the window hook runs after every
	// barrier with the window's limit.
	windowed   bool
	workers    int
	lookahead  Time
	windowHook func(limit Time)
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	e := new(Engine)
	e.Init()
	return e
}

// Init prepares e for use, replacing any previous state. It exists so an
// Engine can be embedded by value in a larger system instead of
// separately heap-allocated.
func (e *Engine) Init() {
	*e = Engine{futileLimit: defaultFutileLimit}
}

// SetConservative sets the conservative lookahead: a lower bound on the
// delay of every cross-processor interaction (for the DSM: the network's
// zero-byte one-way latency). With workers ≥ 1 Run is the windowed
// parallel loop: event execution is partitioned by processor, all
// processors advance through a shared sequence of virtual-time windows
// [W0, W0+lookahead), and the nodes of one window run concurrently on up
// to workers OS threads. Results are byte-identical for every workers
// value ≥ 1, because the window schedule — not the worker count —
// determines execution order. With workers <= 0 Run is the sequential
// loop, and lookahead is how far a task may compute past the next
// processor's clock before it yields (Task.Advance); its visible actions
// still wait their turn (Task.Sync), so the bound changes no result; it
// may change while the sequential loop runs, from the next dispatch on.
func (e *Engine) SetConservative(workers int, lookahead Time) {
	if e.running && (workers > 0 || e.windowed) {
		panic("sim: SetConservative switching loops while running")
	}
	if workers > 0 && lookahead <= 0 {
		panic("sim: SetConservative with non-positive lookahead")
	}
	e.windowed = workers > 0
	e.workers = workers
	e.lookahead = lookahead
}

// SetWindowHook installs fn to run after every windowed barrier, with
// the engine quiescent, receiving the window limit just executed. The
// DSM layer uses it to commit deferred network traffic and flush the
// trace demultiplexer.
func (e *Engine) SetWindowHook(fn func(limit Time)) { e.windowHook = fn }

// SetFutileLimit overrides the livelock watchdog threshold: the number of
// consecutive events Run may execute without any task being dispatched or
// woken before it fails with ErrDeadlock. limit <= 0 disables the
// watchdog.
func (e *Engine) SetFutileLimit(limit int) { e.futileLimit = limit }

// SetReasonNamer installs a formatter for block Reasons used in deadlock
// diagnostics. Higher layers own the Reason value space, so the engine
// delegates naming to them.
func (e *Engine) SetReasonNamer(f func(Reason) string) { e.reasonName = f }

// AddProc creates a simulated processor whose thread switches cost
// switchCost of virtual time.
func (e *Engine) AddProc(switchCost Time) *Proc {
	p := &Proc{eng: e, id: len(e.procs), switchCost: switchCost, hpos: -1}
	e.procs = append(e.procs, p)
	return p
}

// Procs returns the engine's processors in creation order.
func (e *Engine) Procs() []*Proc { return e.procs }

// Now reports the virtual time of the entity currently being dispatched.
// Within event handlers this is the event time.
func (e *Engine) Now() Time { return e.now }

// Runner is a task body. SpawnRunner exists alongside Spawn so a caller
// that already has a per-task object can pass it directly instead of
// allocating a closure per task.
type Runner interface {
	RunTask(t *Task)
}

// funcRunner adapts a plain function to Runner (func values are
// pointer-shaped, so the interface conversion does not allocate).
type funcRunner func(*Task)

func (f funcRunner) RunTask(t *Task) { f(t) }

// Spawn creates a task on p executing fn. It may be called before Run or
// from engine/task context while the simulation is in progress.
func (e *Engine) Spawn(p *Proc, name string, fn func(*Task)) *Task {
	return e.SpawnRunner(p, name, funcRunner(fn))
}

// SpawnRunner creates a task on p executing r.RunTask. Semantics match
// Spawn exactly.
func (e *Engine) SpawnRunner(p *Proc, name string, r Runner) *Task {
	if e.windowed && e.running {
		panic("sim: Spawn during a windowed run")
	}
	t := &Task{eng: e, proc: p, id: e.ntasks, name: name}
	e.ntasks++
	e.live++
	p.live++
	e.tasks = append(e.tasks, t)
	t.start(r)
	p.enqueue(t, p.clock)
	return t
}

// Schedule runs fn in engine context at absolute virtual time at. It must
// be called from engine context (event handlers); tasks use Task.Schedule.
// In windowed mode the global queue does not exist — handlers must name
// the processor their continuation belongs to via ScheduleOn.
func (e *Engine) Schedule(at Time, fn func()) {
	if e.windowed {
		panic("sim: Schedule in windowed mode; use ScheduleOn")
	}
	if at < e.now {
		at = e.now
	}
	e.schedule(at, fn)
}

// ScheduleOn runs fn in engine context on p's timeline at absolute
// virtual time at. In the sequential mode it is identical to Schedule
// (one global queue); in windowed mode the event joins p's private queue
// and fn will run on whichever worker executes p's windows.
func (e *Engine) ScheduleOn(p *Proc, at Time, fn func()) {
	if !e.windowed {
		if at < e.now {
			at = e.now
		}
		e.schedule(at, fn)
		return
	}
	if at < p.lnow {
		at = p.lnow
	}
	p.lseq++
	p.levents.push(event{at: at, seq: p.lseq, fn: fn})
	p.next = min(p.next, at)
}

func (e *Engine) schedule(at Time, fn func()) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// Wake makes a blocked task ready. It must be called from engine context
// (typically a message-delivery handler) executing on t's own processor;
// the wake is stamped with that processor's current time. (In the
// sequential mode this is the engine-global now, so the two definitions
// coincide; in windowed mode handlers only ever wake tasks of the
// processor they run on.)
func (e *Engine) Wake(t *Task) { e.WakeAt(t, t.proc.LocalNow()) }

// WakeAt makes a blocked task ready, stamping the wake at the given
// virtual time. Use it from task context (e.g. a thread handing a local
// lock to a local waiter) with the caller's current clock.
func (e *Engine) WakeAt(t *Task, at Time) {
	if t.state != taskBlocked {
		panic(fmt.Sprintf("sim: Wake of task %q in state %d", t.name, t.state))
	}
	t.state = taskReady
	if e.windowed {
		t.proc.wakes++
	} else {
		e.wakes++
	}
	t.proc.enqueue(t, at)
}

// Run dispatches entities in virtual-time order until every spawned task
// has finished. It returns ErrDeadlock (wrapped with diagnostics) if live
// tasks remain but nothing is runnable. A panic in a task's body surfaces
// here, on the caller's goroutine, as a *TaskPanic (in windowed mode the
// lowest-indexed failing proc's, at every worker count); after it, or
// after an error, Shutdown unwinds the tasks left parked.
func (e *Engine) Run() error {
	if e.running {
		return errors.New("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	if e.windowed {
		return e.runWindowed()
	}

	// Run until every task is done, then drain in-flight events (e.g.
	// message deliveries whose senders have already finished) so traffic
	// accounting is complete. The futile counter tracks consecutive
	// events that neither dispatched nor woke a task: a self-perpetuating
	// event chain with every task blocked (a retransmission timer whose
	// peer will never answer) would otherwise spin Run forever.
	//
	// The winner of each turn is the root of the runnable-proc heap,
	// filled here rather than by Spawn because SetConservative may still
	// change the mode between the two; from here on enqueue feeds it.
	e.ready.reset(e.procs)
	futile := 0
	for e.live > 0 || e.events.Len() > 0 {
		p := e.ready.top()
		evAt := e.events.peekTime()

		// Events run first on ties so handlers at time T are applied
		// before a task acts at T.
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
		// p acts (Sync) while it stays before every pending event and
		// before the runner-up q, at an equal clock only if its id is
		// lower, and computes (Advance) up to the lookahead less one past
		// q's clock; never as far as an event, so the tie with an event
		// does not depend on where p's slices happened to end.
		horizon, reach := evAt-1, evAt-1
		if q, ok := e.ready.second(); ok {
			h := q.clock
			if q.p.id < p.id {
				h--
			}
			horizon = min(horizon, h)
			reach = min(reach, max(h, q.clock+e.lookahead-1))
		}
		e.dispatchProc(p, horizon, reach)
		if p.runnable() {
			e.ready.update(p)
		} else {
			e.ready.remove(p)
		}
	}
	return nil
}

// dispatchProc resumes p's next task for a slice bounded by horizon
// (Task.Sync) and reach (Task.Advance), computed by the caller from the
// pending events and the other runnable processors; p.dispatch only
// mutates p, so the bounds stay valid. It returns when the task hands
// control back, or at once if the thread switch alone crossed the reach;
// a panic in the task's body surfaces from next. A run burst — dispatch
// to block, requeue or done — spans every slice in between, and OnSlice
// reports it once.
func (e *Engine) dispatchProc(p *Proc, horizon, reach Time) {
	if p.current == nil {
		p.burst = p.clock
	}
	t := p.dispatch()
	if !e.windowed && p.clock > reach {
		// The switch to t took p past its reach: whatever comes first
		// runs before t does.
		return
	}
	p.dispatches++
	if e.windowed {
		p.lnow = p.clock
	} else {
		e.now = p.clock
		e.cur = t
	}

	t.horizon, t.reach = horizon, reach
	r, ok := t.next()
	if !e.windowed {
		e.cur = nil
	}
	if !ok {
		r = reportDone
	}
	if r == reportYield {
		// Task crossed a bound; it remains current and will be
		// re-granted when p is again the minimum entity.
		return
	}

	if p.hooks != nil && p.clock > p.burst {
		p.hooks.OnSlice(t, p.burst, p.clock)
	}
	switch r {
	case reportRequeue:
		p.current = nil
		p.runq = append(p.runq, t)
	case reportBlock:
		p.current = nil
		p.noteBlocked()
	case reportDone:
		p.current = nil
		p.live--
		if !e.windowed {
			e.live--
		}
		p.noteBlocked()
	}
}

// Sync makes the task executing in the sequential loop, if any, wait
// for its turn (Task.Sync). From engine context, and in windowed mode,
// it does nothing.
func (e *Engine) Sync() {
	if e.cur != nil {
		e.cur.Sync()
	}
}

// Alone reports whether every processor but t's is idle at a clock no
// later than t's: no other processor has anything to do, nor has done
// anything stamped after t's clock, so no run-ahead bound can have
// ordered its work differently around t's next action.
func (e *Engine) Alone(t *Task) bool {
	for _, p := range e.procs {
		if p != t.proc && (p.runnable() || p.clock > t.proc.clock) {
			return false
		}
	}
	return true
}

// Dispatches reports how many slices Run has dispatched: one per task
// resume, whether it starts a run burst or continues one past a bound.
func (e *Engine) Dispatches() int {
	n := 0
	for _, p := range e.procs {
		n += p.dispatches
	}
	return n
}

// Shutdown unwinds every unfinished task: a body parked at a scheduling
// point (blocked, ready or mid-yield) panics out of it, running its
// deferred calls, and a task never dispatched is dropped unrun. Call it
// once Run has returned an error or panicked; on a finished task, and so
// on every later call, it does nothing.
func (e *Engine) Shutdown() {
	for _, t := range e.tasks {
		t.stop()
	}
}

func (e *Engine) deadlockErr(why string) error {
	var blocked []string
	for _, t := range e.tasks {
		if t.state == taskBlocked {
			blocked = append(blocked, fmt.Sprintf("%s(reason=%s)", t.name, e.fmtReason(t.reason)))
		}
	}
	return fmt.Errorf("%w: %s; %d tasks live, blocked: %s",
		ErrDeadlock, why, e.live, strings.Join(blocked, ", "))
}

func (e *Engine) fmtReason(r Reason) string {
	if e.reasonName != nil {
		return e.reasonName(r)
	}
	return fmt.Sprintf("%d", r)
}
