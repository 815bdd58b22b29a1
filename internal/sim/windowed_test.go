package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// rpcNet is the smallest deferral layer a windowed run needs: a proc's
// sends queue in its own outbox during a window, and the window hook
// delivers them, sender by sender, no earlier than the window limit —
// the part of netsim the engine's contract depends on.
type rpcNet struct {
	e   *Engine
	out [][]rpcMsg
}

type rpcMsg struct {
	at Time
	to int
	fn func()
}

func (n *rpcNet) send(from *Proc, to int, at Time, fn func()) {
	n.out[from.id] = append(n.out[from.id], rpcMsg{at, to, fn})
}

func (n *rpcNet) commit(limit Time) {
	for from, msgs := range n.out {
		for _, m := range msgs {
			if m.at < limit {
				panic(fmt.Sprintf("rpcNet: delivery at %v before the window limit %v", m.at, limit))
			}
			n.e.ScheduleOn(n.e.procs[m.to], m.at, m.fn)
		}
		clear(msgs)
		n.out[from] = msgs[:0]
	}
}

// mix is the hash every rpc-program choice and log entry goes through.
func mix(h, x uint64) uint64 {
	h ^= x + 0x9e3779b97f4a7c15 + h<<6 + h>>2
	return h * 0x100000001b3
}

// rpcLookahead is the rpc program's window width.
const rpcLookahead = 50 * us

// rpcEngine builds a windowed engine of nprocs procs, each running one
// task that for rounds rounds computes, sends a request to a peer and
// blocks until the peer's handler has replied. Each hop takes one to
// eight lookaheads, so a proc is idle most windows — at 192 procs about
// 35 have work in a window, as in the scaleout runs — and every delivery
// folds its proc's own 4 KiB page into the proc's hash, host work of
// the size a DSM handler does on node-local state. log returns what the
// run observed: every proc's hash and final clock.
func rpcEngine(nprocs, workers, rounds int) (e *Engine, log func() string) {
	e = NewEngine()
	e.SetConservative(workers, rpcLookahead)
	net := &rpcNet{e: e, out: make([][]rpcMsg, nprocs)}
	e.SetWindowHook(net.commit)
	hops := func(h uint64) Time { return rpcLookahead * Time(1+h%8) }
	hash := make([]uint64, nprocs)
	pages := make([][512]uint64, nprocs)
	deliver := func(p *Proc) {
		h, page := hash[p.id], &pages[p.id]
		for i := range page {
			h = mix(h, page[i])
		}
		page[h%512] = uint64(p.LocalNow())
		hash[p.id] = h
	}
	for i := 0; i < nprocs; i++ {
		p := e.AddProc(2 * us)
		e.Spawn(p, fmt.Sprintf("rpc%d", i), func(tk *Task) {
			for r := 0; r < rounds; r++ {
				h := mix(uint64(i), uint64(r))
				tk.Advance(Time(1+h%40) * us)
				peer := (i + 1 + int(h>>8)%(nprocs-1)) % nprocs
				net.send(p, peer, tk.Now()+hops(h>>16), func() {
					q := e.procs[peer]
					deliver(q)
					net.send(q, i, q.LocalNow()+hops(h>>24), func() {
						deliver(p)
						e.Wake(tk)
					})
				})
				tk.Block(Reason(1))
			}
		})
	}
	return e, func() string {
		var b strings.Builder
		for i, p := range e.procs {
			fmt.Fprintf(&b, "%d %x %v\n", i, hash[i], p.Clock())
		}
		return b.String()
	}
}

// TestWindowedMatchesAcrossWorkers: the rpc program logs the same run
// at every worker count, spinning and parked alike.
func TestWindowedMatchesAcrossWorkers(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 3, 4, 8} {
		e, log := rpcEngine(48, workers, 20)
		if err := e.Run(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := log(); want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d logged a different run:\n%s\nworkers=1:\n%s", workers, got, want)
		}
	}
}

// TestWindowedOversubscribed: four workers sharing one P never spin —
// each parks at once — so the run finishes in about the time one worker
// takes, with the same log.
func TestWindowedOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	logs := map[int]string{}
	for _, workers := range []int{1, 4} {
		e, log := rpcEngine(64, workers, 30)
		done := make(chan error, 1)
		go func() { done <- e.Run() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d on GOMAXPROCS 1 did not finish in 10s (a waiter spinning against the worker it waits for?)", workers)
		}
		logs[workers] = log()
	}
	if logs[4] != logs[1] {
		t.Fatalf("workers=4 on one P logged a different run:\n%s\nworkers=1:\n%s", logs[4], logs[1])
	}
}

// livelockEngine is TestLivelockDetected's chain on a windowed engine:
// every task blocked for good, and procs 1 and 3 each running a timer
// that re-arms itself every step — at 5µs ten events a 50µs window, at 0
// an endless chain inside one — none of them waking anything.
func livelockEngine(workers, limit int, step Time) *Engine {
	e := NewEngine()
	e.SetConservative(workers, 50*us)
	e.SetFutileLimit(limit)
	for pi := 0; pi < 4; pi++ {
		p := e.AddProc(0)
		e.Spawn(p, fmt.Sprintf("stuck%d", pi), func(tk *Task) { tk.Block(Reason(2)) })
		if pi%2 == 1 {
			var tick func()
			tick = func() { e.ScheduleOn(p, p.LocalNow()+step, tick) }
			e.ScheduleOn(p, 5*us, tick)
		}
	}
	return e
}

// TestWindowedLivelockDetected: the futile watchdog counts across
// windows as well as inside one, so both chains above fail with
// ErrDeadlock at every worker count — naming the same proc with the same
// count — instead of spinning Run forever.
func TestWindowedLivelockDetected(t *testing.T) {
	for _, step := range []Time{5 * us, 0} {
		testWindowedLivelock(t, step)
	}
}

func testWindowedLivelock(t *testing.T, step Time) {
	var want string
	for _, workers := range []int{1, 2, 4} {
		e := livelockEngine(workers, 1000, step)
		done := make(chan error, 1)
		go func() { done <- e.Run() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrDeadlock) || !strings.Contains(err.Error(), "livelock on proc 1") {
				t.Fatalf("workers=%d: Run() = %v, want ErrDeadlock naming a livelock on proc 1", workers, err)
			}
			if want == "" {
				want = err.Error()
			} else if err.Error() != want {
				t.Errorf("workers=%d: verdict %q, want %q as at workers=1", workers, err, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: engine spun on a livelocked event chain instead of detecting it", workers)
		}
		e.Shutdown()
	}
}

// TestWindowedFutileLimitDisabled: a long futile chain that does end in
// a wake, across many windows, completes under a generous limit and with
// the watchdog off.
func TestWindowedFutileLimitDisabled(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, limit := range []int{10_000, 0} {
			e := NewEngine()
			e.SetConservative(workers, 50*us)
			e.SetFutileLimit(limit)
			procs := []*Proc{e.AddProc(0), e.AddProc(0)}
			task := e.Spawn(procs[1], "late", func(tk *Task) { tk.Block(Reason(1)) })
			n := 0
			var tick func()
			tick = func() {
				if n++; n == 5000 {
					e.Wake(task)
					return
				}
				e.ScheduleOn(procs[1], procs[1].LocalNow()+us, tick)
			}
			e.ScheduleOn(procs[1], us, tick)
			if err := e.Run(); err != nil {
				t.Fatalf("workers=%d limit=%d: Run() = %v, want nil (the wake came before the limit)", workers, limit, err)
			}
		}
	}
}

// BenchmarkWindowed times the windowed loop itself on the rpc program at
// the scaleout point's size: 192 procs, about 35 of them with work in
// any window, at one worker and at two. ns/window is the procs' work
// plus what the loop adds to it: the scan, the active lists, the barrier
// and the commit.
func BenchmarkWindowed(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			windows := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, _ := rpcEngine(192, workers, 40)
				commit := e.windowHook
				e.SetWindowHook(func(limit Time) {
					windows++
					commit(limit)
				})
				b.StartTimer()
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(windows), "ns/window")
		})
	}
}
