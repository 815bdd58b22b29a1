package sim

import (
	"errors"
	"fmt"
	"testing"
)

const us = Microsecond

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{3 * Microsecond, "3.000µs"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tt.in), got, tt.want)
		}
	}
}

func TestSingleTaskAdvances(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(8 * us)
	var end Time
	e.Spawn(p, "t0", func(task *Task) {
		task.Advance(100 * us)
		task.Advance(50 * us)
		end = task.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 150*us {
		t.Errorf("task clock = %v, want 150µs", end)
	}
	if p.Clock() != 150*us {
		t.Errorf("proc clock = %v, want 150µs", p.Clock())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*us, func() { order = append(order, 3) })
	e.Schedule(10*us, func() { order = append(order, 1) })
	e.Schedule(20*us, func() { order = append(order, 2) })
	p := e.AddProc(0)
	e.Spawn(p, "t", func(task *Task) { task.Advance(100 * us) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("event order = %v, want [1 2 3]", order)
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*us, func() { order = append(order, i) })
	}
	p := e.AddProc(0)
	e.Spawn(p, "t", func(task *Task) { task.Advance(10 * us) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal times)", i, v, i)
		}
	}
}

func TestBlockAndWake(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(8 * us)
	var task *Task
	var resumedAt Time
	task = e.Spawn(p, "blocker", func(tk *Task) {
		tk.Advance(10 * us)
		tk.Block(Reason(1))
		resumedAt = tk.Now()
	})
	e.Schedule(500*us, func() { e.Wake(task) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Woken at 500µs; same task resumes (no other task ran), so no switch
	// cost is charged.
	if resumedAt != 500*us {
		t.Errorf("resumed at %v, want 500µs", resumedAt)
	}
}

func TestSwitchCostCharged(t *testing.T) {
	e := NewEngine()
	const sw = 8 * us
	p := e.AddProc(sw)
	var switches int
	p.SetHooks(ProcHooks{OnSwitch: func(from, to *Task) { switches++ }})

	var t1 *Task
	var t2ResumedAt, t1ResumedAt Time
	t1 = e.Spawn(p, "t1", func(tk *Task) {
		tk.Advance(10 * us)
		tk.Block(Reason(1)) // woken at 100
		t1ResumedAt = tk.Now()
	})
	e.Spawn(p, "t2", func(tk *Task) {
		// Dispatched after t1 blocks at 10µs: one switch (8µs).
		tk.Advance(30 * us) // runs 18..48
		t2ResumedAt = tk.Now()
	})
	e.Schedule(100*us, func() { e.Wake(t1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t2ResumedAt != 48*us {
		t.Errorf("t2 finished at %v, want 48µs", t2ResumedAt)
	}
	// t1 woken at 100, switch from t2 charged: resumes at 108.
	if t1ResumedAt != 108*us {
		t.Errorf("t1 resumed at %v, want 108µs", t1ResumedAt)
	}
	if switches != 2 {
		t.Errorf("switches = %d, want 2", switches)
	}
}

func TestIdleAttribution(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(0)
	const faultReason = Reason(2)
	var idleStart, idleEnd Time
	var idleReason Reason
	p.SetHooks(ProcHooks{OnIdleEnd: func(start, end Time, task *Task) {
		idleStart, idleEnd, idleReason = start, end, task.BlockReason()
	}})
	var task *Task
	task = e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(25 * us)
		tk.Block(faultReason)
	})
	e.Schedule(250*us, func() { e.Wake(task) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idleStart != 25*us || idleEnd != 250*us {
		t.Errorf("idle = [%v, %v), want [25µs, 250µs)", idleStart, idleEnd)
	}
	if idleReason != faultReason {
		t.Errorf("idle reason = %d, want %d", idleReason, faultReason)
	}
}

func TestHorizonCausality(t *testing.T) {
	// A task on proc A computes in large steps while an event at an
	// earlier virtual time mutates state. The task must observe the
	// mutation no later than its first primitive after the event time.
	e := NewEngine()
	a := e.AddProc(0)
	b := e.AddProc(0)

	shared := 0
	var sawAt Time
	sawVal := -1
	e.Spawn(a, "reader", func(tk *Task) {
		for i := 0; i < 100; i++ {
			tk.Advance(10 * us)
			if shared != 0 && sawVal == -1 {
				sawVal = shared
				sawAt = tk.Now()
			}
		}
	})
	e.Spawn(b, "writer", func(tk *Task) {
		tk.Advance(101 * us)
		// Schedule a "message" that sets shared at 150µs.
		tk.Schedule(150*us, func() { shared = 42 })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sawVal != 42 {
		t.Fatalf("reader never saw write")
	}
	if sawAt < 150*us || sawAt > 160*us {
		t.Errorf("reader saw write at %v, want within one granule after 150µs", sawAt)
	}
}

// runAheads are the sequential loop's run-ahead bounds the ordering
// tests hold to one answer: none, less than a step, and several steps.
var runAheads = []Time{0, 1 * us, 10 * us, 50 * us}

func TestProcsInterleaveByClock(t *testing.T) {
	// Two procs advancing in different step sizes must interleave in
	// virtual-time order when they touch shared state (after Sync), and
	// at a tie the lower proc id goes first, at every run-ahead bound.
	for _, bound := range runAheads {
		e := NewEngine()
		e.SetConservative(0, bound)
		var log []string
		mk := func(p *Proc, name string, step Time, n int) {
			e.Spawn(p, name, func(tk *Task) {
				for i := 0; i < n; i++ {
					tk.Advance(step)
					tk.Sync()
					log = append(log, fmt.Sprintf("%s@%d", name, int64(tk.Now()/us)))
				}
			})
		}
		mk(e.AddProc(0), "a", 30*us, 3) // 30, 60, 90
		mk(e.AddProc(0), "b", 20*us, 4) // 20, 40, 60, 80
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		want := "[b@20 a@30 b@40 a@60 b@60 b@80 a@90]"
		if got := fmt.Sprint(log); got != want {
			t.Errorf("bound %v: interleaving = %v, want %v", bound, got, want)
		}
	}
}

// TestSameTimeActionsInProcOrder: two procs reach a visible action at the
// same instant along different trajectories, with an event due at that
// instant too. Whatever the trajectories, and wherever the run-ahead bound
// ends their slices, the event runs first and proc 0 acts before proc 1.
func TestSameTimeActionsInProcOrder(t *testing.T) {
	tens := []Time{10 * us, 10 * us, 10 * us, 10 * us, 10 * us, 10 * us}
	cases := []struct {
		name   string
		p0, p1 []Time // the Advance steps before each proc's action
		event  Time
		want   string
	}{
		{"p0 short steps", tens, []Time{60 * us}, 60 * us, "[event@60 p0@60 p1@60]"},
		{"p0 one step", []Time{60 * us}, tens, 60 * us, "[event@60 p0@60 p1@60]"},
		// p1 jumps past the event while p0 is between its two steps: at
		// bound 0 p0's second slice starts after the jump, at a larger
		// bound p0 reaches 20 in its first.
		{"runner-up jumps", []Time{10 * us, 10 * us}, []Time{5 * us, 100 * us}, 20 * us,
			"[event@20 p0@20 p1@105]"},
	}
	for _, c := range cases {
		for _, bound := range runAheads {
			e := NewEngine()
			e.SetConservative(0, bound)
			var log []string
			prog := func(name string, steps []Time) func(*Task) {
				return func(tk *Task) {
					for _, d := range steps {
						tk.Advance(d)
					}
					tk.Sync()
					log = append(log, fmt.Sprintf("%s@%d", name, int64(tk.Now()/us)))
				}
			}
			e.Spawn(e.AddProc(0), "p0", prog("p0", c.p0))
			e.Spawn(e.AddProc(0), "p1", prog("p1", c.p1))
			e.Schedule(c.event, func() { log = append(log, fmt.Sprintf("event@%d", int64(e.Now()/us))) })
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(log); got != c.want {
				t.Errorf("%s, bound %v: %v, want %v", c.name, bound, got, c.want)
			}
		}
	}
}

// TestSwitchPastEventRunsEventFirst: a thread switch whose cost carries
// the processor past a pending event lets the event run before the new
// thread does, so the thread sees the event's effect at every bound.
func TestSwitchPastEventRunsEventFirst(t *testing.T) {
	for _, bound := range runAheads {
		e := NewEngine()
		e.SetConservative(0, bound)
		p := e.AddProc(10 * us)
		fired, seen := false, false
		e.Spawn(p, "a", func(tk *Task) { tk.Advance(1 * us) })
		e.Spawn(p, "b", func(tk *Task) { seen = fired }) // dispatched at 11 µs
		e.Schedule(5*us, func() { fired = true })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !seen {
			t.Errorf("bound %v: b ran at 11µs before the event at 5µs", bound)
		}
	}
}

// TestScheduleAtOwnNowWaitsForBlock: an event a task schedules for its
// own clock runs only once the task has handed control back, even with a
// visible action between the two and another proc at the same clock — a
// wake that ran first would find the task still running.
func TestScheduleAtOwnNowWaitsForBlock(t *testing.T) {
	for _, bound := range runAheads {
		e := NewEngine()
		e.SetConservative(0, bound)
		p0, p1 := e.AddProc(0), e.AddProc(0)
		var woke Time = -1
		e.Spawn(p1, "waiter", func(tk *Task) {
			tk.Advance(10 * us)
			tk.Schedule(tk.Now(), func() { e.Wake(tk) })
			tk.Sync()
			tk.Block(Reason(1))
			woke = tk.Now()
		})
		e.Spawn(p0, "other", func(tk *Task) {
			for i := 0; i < 4; i++ {
				tk.Advance(5 * us)
				tk.Sync()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if woke != 10*us {
			t.Errorf("bound %v: waiter woke at %v, want 10µs", bound, woke)
		}
	}
}

func TestYieldRoundRobin(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(0)
	var log []string
	for _, name := range []string{"x", "y"} {
		name := name
		e.Spawn(p, name, func(tk *Task) {
			for i := 0; i < 3; i++ {
				tk.Advance(1 * us)
				log = append(log, name)
				tk.Yield()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[x y x y x y]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("yield order = %v, want %v", got, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(0)
	e.Spawn(p, "stuck", func(tk *Task) {
		tk.Block(Reason(3)) // nobody wakes it
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run() = %v, want ErrDeadlock", err)
	}
	e.Shutdown()
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for pi := 0; pi < 4; pi++ {
			p := e.AddProc(8 * us)
			for ti := 0; ti < 3; ti++ {
				name := fmt.Sprintf("p%dt%d", pi, ti)
				step := Time(pi*7+ti*3+1) * us
				e.Spawn(p, name, func(tk *Task) {
					for i := 0; i < 5; i++ {
						tk.Advance(step)
						log = append(log, fmt.Sprintf("%s@%d", name, tk.Now()))
						tk.Yield()
					}
				})
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := fmt.Sprint(run())
	for i := 0; i < 3; i++ {
		if got := fmt.Sprint(run()); got != first {
			t.Fatalf("run %d diverged from first run", i+2)
		}
	}
}

func TestSliceHookCoversUserTime(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(0)
	var total Time
	p.SetHooks(ProcHooks{OnSlice: func(task *Task, start, end Time) { total += end - start }})
	e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(40 * us)
		tk.Yield()
		tk.Advance(60 * us)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 100*us {
		t.Errorf("slice total = %v, want 100µs", total)
	}
}

func TestSpawnMidRun(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(0)
	var childEnd Time
	e.Spawn(p, "parent", func(tk *Task) {
		tk.Advance(10 * us)
		e.Spawn(p, "child", func(c *Task) {
			c.Advance(5 * us)
			childEnd = c.Now()
		})
		tk.Advance(10 * us)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 25*us {
		t.Errorf("child finished at %v, want 25µs", childEnd)
	}
}

func TestLIFODispatchOrder(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(0)
	p.SetLIFO(true)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(p, name, func(tk *Task) {
			tk.Advance(1 * us)
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// LIFO: the most recently spawned (readied) task runs first.
	if fmt.Sprint(order) != "[c b a]" {
		t.Errorf("LIFO order = %v, want [c b a]", order)
	}
	if p.ID() != 0 {
		t.Errorf("proc id = %d, want 0", p.ID())
	}
}

func TestTaskAccessors(t *testing.T) {
	e := NewEngine()
	p := e.AddProc(0)
	task := e.Spawn(p, "named", func(tk *Task) { tk.Advance(us) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if task.Name() != "named" || task.ID() != 0 || task.Proc() != p {
		t.Errorf("accessors: name=%q id=%d", task.Name(), task.ID())
	}
	if len(e.Procs()) != 1 {
		t.Errorf("Procs() = %d, want 1", len(e.Procs()))
	}
}
