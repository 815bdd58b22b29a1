package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cvm/internal/sim"
)

// settle waits up to a second for the goroutine count to drop to want:
// a goroutine that has signalled its exit still has a return to make.
func settle(want int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	return runtime.NumGoroutine()
}

// TestWindowedRunLeavesNoGoroutine: the windowed engine's workers are
// gone once Run is over, however it ends — success, ErrDeadlock, a task's
// panic or CommitWindow's lookahead panic — with the workers spinning
// between windows (as many Ps as workers) and parked (one P). Four nodes
// play request and reply over the deferred network.
func TestWindowedRunLeavesNoGoroutine(t *testing.T) {
	ends := []string{"success", "deadlock", "task panic", "lookahead panic"}
	for _, procs := range []int{2, 1} {
		mode := map[int]string{2: "spinning", 1: "parked"}[procs]
		for _, end := range ends {
			t.Run(mode+"/"+end, func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				before := runtime.NumGoroutine()
				eng := sim.NewEngine()
				params := DefaultParams()
				lookahead := params.Lookahead()
				if end == "lookahead panic" {
					lookahead *= 20 // wider than the network can honour
				}
				eng.SetConservative(2, lookahead)
				nw := New(eng, 4, params)
				nw.SetDeferred(true)
				eng.SetWindowHook(nw.CommitWindow)
				for i := 0; i < 4; i++ {
					p := eng.AddProc(8 * us)
					from, to := NodeID(i), NodeID((i+1)%4)
					eng.Spawn(p, fmt.Sprintf("node%d", i), func(tk *sim.Task) {
						for r := 0; r < 10; r++ {
							tk.Advance(20 * us)
							nw.SendFromTask(tk, from, to, ClassLock, 16, func() {
								nw.SendFromHandler(to, from, ClassLock, 16, func() { eng.Wake(tk) })
							})
							tk.Block(sim.Reason(1))
							if r == 5 && from == 2 && end == "task panic" {
								panic("node 2 fails")
							}
						}
						if from == 3 && end == "deadlock" {
							tk.Block(sim.Reason(2))
						}
					})
				}
				spawned := runtime.NumGoroutine()

				var err error
				var panicked any
				func() {
					defer func() { panicked = recover() }()
					err = eng.Run()
				}()
				switch tp, _ := panicked.(*sim.TaskPanic); {
				case end == "success" && (err != nil || panicked != nil),
					end == "deadlock" && !errors.Is(err, sim.ErrDeadlock),
					end == "task panic" && (tp == nil || tp.Value != "node 2 fails"),
					end == "lookahead panic" && !strings.Contains(fmt.Sprint(panicked), "violates lookahead bound"):
					t.Fatalf("Run() = %v, panicked with %v", err, panicked)
				}
				if got := settle(spawned); got > spawned {
					t.Errorf("%d goroutines after Run, %d before it: a window worker outlived Run", got, spawned)
				}
				eng.Shutdown()
				if got := settle(before); got > before {
					t.Errorf("%d goroutines after Shutdown, %d before the engine", got, before)
				}
			})
		}
	}
}
