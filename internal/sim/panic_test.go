package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// runRecovered runs e and returns what Run panicked with (nil if it
// returned).
func runRecovered(t *testing.T, e *Engine) (panicked any) {
	t.Helper()
	defer func() { panicked = recover() }()
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want a panic", err)
	}
	return nil
}

// waitGoroutines waits for the goroutine count to come back down to
// want: an unwound coroutine's goroutine exits just after stop returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > want {
		t.Errorf("goroutines = %d, want <= %d (a task was left behind)", got, want)
	}
}

// TestTaskPanicReachesRun pins the panic contract in both engine modes:
// a panic in a task's body surfaces from Run on the caller's goroutine
// as a *TaskPanic naming the task and carrying the value and the body's
// stack; Shutdown then unwinds every task left parked — blocked, ready
// and never dispatched, mid-yield — running their deferred calls, and a
// second Shutdown is harmless.
func TestTaskPanicReachesRun(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			e.SetConservative(workers, 50*us)
			unwound := 0
			parked := func(body func(tk *Task)) func(*Task) {
				return func(tk *Task) {
					defer func() { unwound++ }()
					body(tk)
				}
			}
			for pi := 0; pi < 4; pi++ {
				p := e.AddProc(8 * us)
				e.Spawn(p, fmt.Sprintf("blocked%d", pi), parked(func(tk *Task) { tk.Block(Reason(1)) }))
				e.Spawn(p, fmt.Sprintf("yielding%d", pi), parked(func(tk *Task) {
					for {
						tk.Advance(30 * us)
						tk.Yield()
					}
				}))
			}
			e.Spawn(e.Procs()[2], "bomb", func(tk *Task) {
				tk.Advance(400 * us)
				panic(boom)
			})
			// Queued behind the bomb, which keeps its proc until it
			// panics: stopped without ever having run.
			e.Spawn(e.Procs()[2], "unstarted", func(tk *Task) { t.Error("unstarted task ran") })

			got := runRecovered(t, e)
			tp, ok := got.(*TaskPanic)
			if !ok {
				t.Fatalf("Run panicked with %T %v, want *TaskPanic", got, got)
			}
			if tp.Value != boom || tp.Task.Name() != "bomb" {
				t.Errorf("TaskPanic = task %q value %v, want task \"bomb\" value %v", tp.Task.Name(), tp.Value, boom)
			}
			if !strings.Contains(tp.Error(), `task "bomb" panicked: boom`) ||
				!strings.Contains(string(tp.Stack), "TestTaskPanicReachesRun") {
				t.Errorf("TaskPanic text does not name the task and the body's stack:\n%s", tp.Error())
			}

			e.Shutdown()
			if unwound != 8 {
				t.Errorf("deferred calls run by Shutdown = %d, want 8 (every parked task unwound)", unwound)
			}
			e.Shutdown()
			waitGoroutines(t, before)
		})
	}
}

// TestWindowedPanicLowestProcWins: when several procs panic inside one
// window, the lowest-indexed proc's panic is the one Run raises, at
// every worker count — a failure reports identically however the window
// was spread over OS threads.
func TestWindowedPanicLowestProcWins(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		e := NewEngine()
		e.SetConservative(workers, 100*us)
		for pi := 0; pi < 6; pi++ {
			p := e.AddProc(0)
			e.Spawn(p, fmt.Sprintf("t%d", pi), func(tk *Task) {
				tk.Advance(10 * us)
				if pi := tk.Proc().ID(); pi == 1 || pi == 3 || pi == 5 {
					panic(pi)
				}
				tk.Block(Reason(1))
			})
		}
		got := runRecovered(t, e)
		if tp, ok := got.(*TaskPanic); !ok || tp.Value != 1 || tp.Task.Name() != "t1" {
			t.Errorf("workers=%d: Run panicked with %v, want proc 1's panic", workers, got)
		}
		e.Shutdown()
		waitGoroutines(t, before)
	}
}

// TestHandlerPanicReachesRun: a panic in an event handler (engine
// context, no task involved) reaches Run's caller as the bare value.
func TestHandlerPanicReachesRun(t *testing.T) {
	for _, workers := range []int{0, 2} {
		before := runtime.NumGoroutine()
		e := NewEngine()
		e.SetConservative(workers, 100*us)
		p := e.AddProc(0)
		e.Spawn(p, "waiter", func(tk *Task) { tk.Block(Reason(1)) })
		e.ScheduleOn(p, 20*us, func() { panic("handler") })
		if got := runRecovered(t, e); got != "handler" {
			t.Errorf("workers=%d: Run panicked with %v, want \"handler\"", workers, got)
		}
		e.Shutdown()
		waitGoroutines(t, before)
	}
}
