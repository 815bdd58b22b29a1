package sim

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// This file is the conservative windowed parallel run loop (enabled by
// SetConservative). The scheme is a null-message-free conservative
// parallel discrete-event simulation:
//
//   - Work is partitioned by Proc. During a window each proc executes
//     only its own tasks and its own local events; every cross-proc
//     effect is routed through a deferral layer (for the DSM, the
//     netsim outboxes) and applied between windows.
//   - A window starts at W0 = min over procs of nextAt(p) — the
//     earliest pending work anywhere — and runs every proc up to
//     W1 = W0 + lookahead, exclusive.
//   - lookahead is a static lower bound on cross-proc latency, counted
//     from the instant an interaction is recorded by the deferral layer
//     (not from when the sender started charging overhead — a send can
//     straddle the window boundary): anything recorded at time T ≥ W0
//     inside the window lands at its target no earlier than
//     T + lookahead ≥ W1, i.e. at or after the next window boundary.
//     Procs therefore cannot affect each other within a window, and no
//     null messages or channel clocks are needed.
//   - At the barrier the coordinator runs the window hook (commit
//     deferred messages, flush traces, apply deferred resets), then
//     opens the next window.
//
// Every step is deterministic in the window schedule alone: W0 is a
// pure function of simulation state, per-proc execution is sequential,
// and the commit processes outboxes in fixed order. The worker count
// only changes which OS thread executes a proc's window, so results are
// byte-identical for every workers value — the invariant the
// determinism guard in internal/harness enforces.

// spinBudget is how long a waiter at the window barrier spins before it
// parks. It is a time, not an iteration count: it must outlast the
// commit between two windows, or the scheduler hand-off comes back.
const spinBudget = 300 * time.Microsecond

// windowGate is the barrier between the coordinator (waiter 0) and
// workers 1..n-1. The coordinator publishes a window and bumps epoch;
// each worker runs its list and counts left down. A waiter spins for up
// to spinBudget — not at all when workers outnumber GOMAXPROCS — then
// parks on its 1-buffered wake channel, which every release tops up: a
// token left from a window the waiter did not park in costs it one
// re-check.
type windowGate struct {
	epoch   atomic.Uint64
	left    atomic.Int32
	spin    bool
	limit   Time // the published window: written before an epoch bump
	carried int
	lists   [][]*Proc // lists[w]: worker w's procs with work before limit; nil stops the workers
	active  []*Proc   // every list's procs, by id
	wake    []chan struct{}
}

// await returns once ready holds for waiter k.
func (g *windowGate) await(k int, ready func() bool) {
	deadline := time.Now().Add(spinBudget)
	for i := 1; g.spin && !ready(); i++ {
		if i%1024 == 0 {
			if time.Now().After(deadline) {
				break
			}
			runtime.Gosched()
		}
	}
	for !ready() {
		<-g.wake[k]
	}
}

func (g *windowGate) release(k int) {
	select {
	case g.wake[k] <- struct{}{}:
	default:
	}
}

// open starts the workers on the published window; wait returns once
// they are through it.
func (g *windowGate) open() {
	g.left.Store(int32(len(g.wake) - 1))
	g.epoch.Add(1)
	for w := 1; w < len(g.wake); w++ {
		g.release(w)
	}
}

func (g *windowGate) wait() { g.await(0, func() bool { return g.left.Load() == 0 }) }

func (g *windowGate) work(e *Engine, w int) {
	for epoch := uint64(1); ; epoch++ {
		g.await(w, func() bool { return g.epoch.Load() == epoch })
		stop := g.lists == nil
		if !stop {
			for _, p := range g.lists[w] {
				e.procWindow(p, g.limit, g.carried)
			}
		}
		if g.left.Add(-1) == 0 {
			g.release(0)
		}
		if stop {
			return
		}
	}
}

// runWindowed executes the simulation window by window until every task
// has finished and all deferred work has drained. Only the procs with
// work before W1 take part in a window: the W0 scan reads each proc's
// next (left by its last window, lowered by the commit's deliveries),
// and worker w gets its procs (proc % workers, so a proc's state stays
// in one core's cache) with work before W1.
func (e *Engine) runWindowed() error {
	nw := max(1, min(e.workers, len(e.procs)))
	g := &windowGate{spin: nw <= runtime.GOMAXPROCS(0), lists: make([][]*Proc, nw), wake: make([]chan struct{}, nw)}
	for w := range g.wake {
		g.wake[w] = make(chan struct{}, 1)
		if w > 0 {
			go g.work(e, w)
		}
	}
	defer func() { // on every path: the workers are through the last window, then gone
		g.wait()
		g.lists = nil
		g.open()
		g.wait()
	}()

	for _, p := range e.procs {
		p.next = p.nextAt()
	}
	carried := 0 // futile events over the consecutive windows without progress
	for {
		w0, live := MaxTime, 0
		for _, p := range e.procs {
			live += p.live
			w0 = min(w0, p.next)
		}
		if w0 == MaxTime {
			if live == 0 {
				return nil
			}
			return e.deadlockErr("no runnable entity and no pending event")
		}
		limit := w0 + e.lookahead
		for w := range g.lists {
			g.lists[w] = g.lists[w][:0]
		}
		g.active = g.active[:0]
		for i, p := range e.procs {
			if p.next < limit {
				g.lists[i%nw] = append(g.lists[i%nw], p)
				g.active = append(g.active, p)
			}
		}
		g.limit, g.carried = limit, carried
		g.open()
		for _, p := range g.lists[0] {
			e.procWindow(p, limit, carried)
		}
		g.wait()

		// Propagate worker outcomes deterministically: the lowest proc
		// index wins, so a multi-proc failure reports identically at
		// every worker count. Panics (e.g. the transport's loud failure)
		// re-raise on the coordinator, where Run's caller can recover
		// them exactly as in the sequential mode.
		for _, p := range g.active {
			if f := p.failure; f != nil {
				p.failure = nil
				panic(f)
			}
		}
		// The futile watchdog counts across windows as the sequential loop
		// does: while tasks are live, restarted by a dispatch or wake
		// anywhere. A proc that reached the limit inside the window
		// stopped there.
		for _, p := range g.active {
			if p.progressed || live == 0 {
				carried = 0
				break
			}
			carried += p.futile - g.carried
		}
		for _, p := range g.active {
			if n := max(p.futile, carried); e.futileLimit > 0 && n >= e.futileLimit {
				return fmt.Errorf("%w: livelock on proc %d: %d consecutive events without a task dispatch or wake",
					ErrDeadlock, p.id, n)
			}
		}

		if e.windowHook != nil {
			e.windowHook(limit)
		}
	}
}

// procWindow runs one processor to the window limit: its local events
// and task slices interleaved in local-time order, events first on ties.
// It touches only p-local state (plus deferral-layer state owned by p),
// so any worker may execute it. Panics are captured per proc and
// re-raised by the coordinator. The futile count starts from carried,
// so a livelock spanning windows trips the limit inside one too.
func (e *Engine) procWindow(p *Proc, limit Time, carried int) {
	defer func() {
		if r := recover(); r != nil {
			p.failure = r
		}
	}()
	p.futile, p.progressed = carried, false
	for {
		evAt := p.levents.peekTime()
		taskAt := MaxTime
		if p.runnable() {
			taskAt = p.clock
		}
		if evAt >= limit && taskAt >= limit {
			p.next = min(evAt, taskAt)
			return
		}
		if evAt <= taskAt {
			ev := p.levents.pop()
			p.lnow = ev.at
			wakesBefore, liveBefore := p.wakes, p.live
			ev.fn()
			if p.wakes == wakesBefore && p.live == liveBefore && !p.runnable() {
				if p.futile++; e.futileLimit > 0 && p.futile >= e.futileLimit {
					return // the coordinator gives the verdict
				}
			} else {
				p.futile, p.progressed = 0, true
			}
			continue
		}
		p.futile, p.progressed = 0, true
		e.dispatchProc(p, MaxTime, min(evAt, limit))
	}
}
