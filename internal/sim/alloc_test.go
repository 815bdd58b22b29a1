//go:build !race

package sim

import "testing"

// TestSteadyStateDoesNotAllocate pins the two per-operation costs the
// benchmark reports as sim.event_allocs and sim.handoff_allocs at zero:
// an event is a value in a slice whose capacity the run reuses, and a
// hand-off is a coroutine switch. (What a task costs to spawn is pinned
// by the root package's TestSpanAllocCaps.) Not built under the race
// detector, whose runtime allocates on its own account.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var q eventQueue
	nop := func() {}
	x := uint64(1)
	next := func() Time {
		x = x*6364136223846793005 + 1442695040888963407
		return Time(x >> 40)
	}
	for i := 0; i < 256; i++ {
		q.push(event{at: next(), seq: uint64(i), fn: nop})
	}
	if n := testing.AllocsPerRun(1000, func() {
		ev := q.pop()
		ev.at += next()
		q.push(ev)
	}); n != 0 {
		t.Errorf("event push+pop: %v allocs/op, want 0", n)
	}

	// Two tasks on one proc waking each other, measured from inside the
	// run: one WakeAt and one Block a side, four switches a round.
	e := NewEngine()
	p := e.AddProc(8 * us)
	var ping, pong *Task
	done := false
	pong = e.Spawn(p, "pong", func(tk *Task) {
		for {
			tk.Block(Reason(1))
			if done {
				return
			}
			e.WakeAt(ping, tk.Now())
		}
	})
	ping = e.Spawn(p, "ping", func(tk *Task) {
		if n := testing.AllocsPerRun(1000, func() {
			e.WakeAt(pong, tk.Now())
			tk.Block(Reason(1))
		}); n != 0 {
			t.Errorf("Block/WakeAt ping-pong: %v allocs/round, want 0", n)
		}
		done = true
		e.WakeAt(pong, tk.Now())
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
