package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

type taskState uint8

const (
	taskReady taskState = iota
	taskRunning
	taskBlocked
	taskDone
)

type reportKind uint8

const (
	reportYield   reportKind = iota // bound crossed; task remains current
	reportRequeue                   // voluntary yield; task to back of run queue
	reportBlock                     // task blocked awaiting Wake
	reportDone                      // task function returned
)

// Task is a green thread running on a Proc: a coroutine the engine
// resumes for one slice at a time (next) and that hands control back at
// every scheduling point (yield) — a direct switch between the two, with
// no channel and no trip through the Go scheduler. Task methods must be
// called only from the task's own body while it is executing (i.e. from
// within the function passed to Engine.Spawn).
type Task struct {
	eng  *Engine
	proc *Proc
	id   int
	name string

	// The coroutine (iter.Pull over the task body). Only dispatchProc
	// calls next, so at most one task per proc — and in the sequential
	// mode one task in all — executes at a time; yield is the body's side
	// of the switch and stop unwinds a body that will never be resumed.
	next  func() (reportKind, bool)
	stop  func()
	yield func(reportKind) bool

	// The current slice's bounds, set before next. horizon is the
	// latest clock at which the task still comes before every other
	// entity (Sync); reach ≥ horizon is how far it may compute (Advance).
	horizon Time
	reach   Time
	state   taskState
	reason  Reason // why the task last blocked
}

// TaskPanic is what Engine.Run panics with when a task's body panics:
// the panic surfaces from the engine's resume of that task, on the
// goroutine that called Run, carrying the task, the value it panicked
// with and the body's stack at that moment (the coroutine switch does
// not keep it).
type TaskPanic struct {
	Task  *Task
	Value any
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("sim: task %q panicked: %v\n\n%s", p.Task.name, p.Value, p.Stack)
}

// taskStopped is the panic that unwinds a parked task's body on
// Shutdown, running its deferred calls. It is a panic and not
// runtime.Goexit because iter.Pull hands a Goexit on to whoever called
// stop — Shutdown's caller.
type taskStopped struct{}

// ID reports the task's engine-wide index, assigned in spawn order from 0.
func (t *Task) ID() int { return t.id }

// Name reports the diagnostic name given at spawn.
func (t *Task) Name() string { return t.name }

// Proc reports the processor the task runs on.
func (t *Task) Proc() *Proc { return t.proc }

// Now reports the task's current virtual time (its processor clock).
func (t *Task) Now() Time { return t.proc.clock }

// BlockReason reports why the task last blocked (ReasonNone initially).
func (t *Task) BlockReason() Reason { return t.reason }

// Advance charges d of computation to the task, advancing its processor
// clock. If the new clock crosses the slice's reach the task yields, so
// pending events at or before its clock are applied before the task
// observes any further state. In the sequential loop the reach is just
// short of the next pending event, or the next processor's clock plus the
// lookahead less one if that is sooner (SetConservative): no message
// another processor sends from there on can land on this one before it.
func (t *Task) Advance(d Time) {
	t.proc.charge(d)
	for t.proc.clock > t.reach {
		t.handoff(reportYield)
	}
}

// Sync returns once the task comes before every other entity in the
// sequential loop's order: every pending event is later than its clock
// (but one it scheduled for its own clock), and every other runnable
// processor is later in (clock, id). Call it
// before any action another processor can observe — scheduling an event,
// accounting a message's arrival, emitting a trace event, resetting
// statistics — so those actions happen in one order at every run-ahead
// bound. In windowed mode such actions are deferred to the window commit
// and Sync returns at once.
func (t *Task) Sync() {
	for t.proc.clock > t.horizon {
		t.handoff(reportYield)
	}
}

// Block suspends the task until Engine.Wake, recording reason for idle-time
// attribution. It returns once the scheduler grants the task again; the
// processor clock at return reflects wake time plus any switch cost.
func (t *Task) Block(reason Reason) {
	t.reason = reason
	t.state = taskBlocked
	t.handoff(reportBlock)
	t.state = taskRunning
}

// Yield moves the task to the back of its processor's run queue, letting
// other local ready tasks run first. It models CVM's explicit
// application-requested thread switch.
func (t *Task) Yield() {
	t.state = taskReady
	t.handoff(reportRequeue)
	t.state = taskRunning
}

// Schedule runs fn in engine context at absolute virtual time at, which
// must not precede the task's clock. The task's bounds are lowered so it
// will not run past the new event before the event is applied; an event
// at the task's own clock waits for the task to hand control back. In
// windowed mode the event lands on the task's own processor — a task can
// only schedule local continuations; cross-proc effects go through the
// deferred network.
func (t *Task) Schedule(at Time, fn func()) {
	t.Sync()
	if at < t.proc.clock {
		at = t.proc.clock
	}
	if t.eng.windowed {
		t.proc.lseq++
		t.proc.levents.push(event{at: at, seq: t.proc.lseq, fn: fn})
	} else {
		t.eng.schedule(at, fn)
	}
	t.horizon = min(t.horizon, at)
	t.reach = min(t.reach, at)
}

// handoff returns control to the engine and resumes when the engine next
// dispatches the task, which has by then set the new slice's bounds.
func (t *Task) handoff(r reportKind) {
	if !t.yield(r) {
		panic(taskStopped{})
	}
}

// start makes t the coroutine running r.RunTask. Nothing runs until the
// first next; a body that returns ends the sequence, which dispatchProc
// reads as reportDone.
func (t *Task) start(r Runner) {
	t.next, t.stop = iter.Pull(func(yield func(reportKind) bool) {
		defer func() {
			switch p := recover().(type) {
			case nil, taskStopped:
			default:
				panic(&TaskPanic{Task: t, Value: p, Stack: debug.Stack()})
			}
		}()
		t.yield = yield
		t.state = taskRunning
		r.RunTask(t)
		t.state = taskDone
	})
}
