package rt_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/core"
	"cvm/internal/rt"
	"cvm/internal/transport"
)

func newCluster(t *testing.T, nodes, threads int) *rt.Cluster {
	t.Helper()
	c, err := rt.NewCluster(rt.DefaultConfig(nodes, threads))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		cfg rt.Config
		ok  bool
		is  error // the error it must wrap, if any
	}{
		{rt.Config{Nodes: 0, ThreadsPerNode: 1, PageSize: 4096}, false, nil},
		{rt.Config{Nodes: 1, ThreadsPerNode: 0, PageSize: 4096}, false, nil},
		{rt.Config{Nodes: 1, ThreadsPerNode: 1, PageSize: 0}, false, nil},
		{rt.Config{Nodes: 1, ThreadsPerNode: 1, PageSize: 100}, false, nil}, // not a multiple of 8
		{rt.Config{Nodes: 1, ThreadsPerNode: 1, PageSize: 32 << 10}, true, nil},
		{rt.Config{Nodes: 1, ThreadsPerNode: 1, PageSize: 64 << 10}, false, core.ErrPageTooLarge},
	} {
		_, err := rt.NewCluster(tc.cfg)
		if (err == nil) != tc.ok || (tc.is != nil && !errors.Is(err, tc.is)) {
			t.Errorf("NewCluster(%+v) = %v, want ok=%v (error %v)", tc.cfg, err, tc.ok, tc.is)
		}
	}
}

// TestCounterValue is the fundamental coherence test: concurrent
// read-modify-writes to one shared word are serialized by a DSM lock,
// and the final value must be exact. Exercises lock management, twin
// creation, diff flushing at release, and invalidation at acquire.
func TestCounterValue(t *testing.T) {
	const nodes, threads, iters = 4, 2, 25
	c := newCluster(t, nodes, threads)
	ctr := cvm.MustAllocF64(c, "ctr", 1)
	var got float64
	_, err := c.RunLoopback(func(w cvm.Worker) {
		for i := 0; i < iters; i++ {
			w.Lock(5)
			ctr.Add(w, 0, 1)
			w.Unlock(5)
		}
		w.Barrier(0)
		if w.GlobalID() == 0 {
			got = ctr.Get(w, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(nodes * threads * iters); got != want {
		t.Fatalf("counter = %v, want %v", got, want)
	}
}

// TestBarrierPropagatesWrites checks the barrier's release-consistency
// semantics: every thread writes its slot before the barrier and reads
// all other slots after it.
func TestBarrierPropagatesWrites(t *testing.T) {
	const nodes, threads = 4, 2
	c := newCluster(t, nodes, threads)
	slots := cvm.MustAllocF64(c, "slots", nodes*threads)
	var mu sync.Mutex
	bad := 0
	_, err := c.RunLoopback(func(w cvm.Worker) {
		for round := 0; round < 3; round++ {
			slots.Set(w, w.GlobalID(), float64(100*round+w.GlobalID()))
			w.Barrier(round)
			for g := 0; g < w.Threads(); g++ {
				if v := slots.Get(w, g); v != float64(100*round+g) {
					mu.Lock()
					bad++
					mu.Unlock()
				}
			}
			w.Barrier(100 + round)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d stale reads after barrier", bad)
	}
}

// TestLocalBarrier checks that co-located threads can share plain
// process memory across a local barrier (the run token's handoff is the
// synchronization, exactly as under the simulator's cooperative
// scheduler).
func TestLocalBarrier(t *testing.T) {
	const nodes, threads = 2, 4
	c := newCluster(t, nodes, threads)
	local := make([][]int, nodes)
	for i := range local {
		local[i] = make([]int, threads)
	}
	sums := make([][]int, nodes)
	for i := range sums {
		sums[i] = make([]int, threads)
	}
	_, err := c.RunLoopback(func(w cvm.Worker) {
		local[w.NodeID()][w.LocalID()] = w.GlobalID() + 1
		w.LocalBarrier(0)
		s := 0
		for _, v := range local[w.NodeID()] {
			s += v
		}
		sums[w.NodeID()][w.LocalID()] = s
	})
	if err != nil {
		t.Fatal(err)
	}
	for nd := 0; nd < nodes; nd++ {
		want := 0
		for l := 0; l < threads; l++ {
			want += nd*threads + l + 1
		}
		for l, got := range sums[nd] {
			if got != want {
				t.Errorf("node %d thread %d: local sum %d, want %d", nd, l, got, want)
			}
		}
	}
}

func TestReduce(t *testing.T) {
	const nodes, threads = 3, 2
	c := newCluster(t, nodes, threads)
	results := make([]float64, nodes*threads)
	maxes := make([]float64, nodes*threads)
	_, err := c.RunLoopback(func(w cvm.Worker) {
		results[w.GlobalID()] = w.ReduceF64(1, float64(w.GlobalID()+1), cvm.ReduceSum)
		maxes[w.GlobalID()] = w.ReduceF64(2, float64(w.GlobalID()), cvm.ReduceMax)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := nodes * threads
	wantSum := float64(n * (n + 1) / 2)
	for g, r := range results {
		if r != wantSum {
			t.Errorf("thread %d: reduce sum = %v, want %v", g, r, wantSum)
		}
		if maxes[g] != float64(n-1) {
			t.Errorf("thread %d: reduce max = %v, want %v", g, maxes[g], float64(n-1))
		}
	}
}

func TestWorkerIdentity(t *testing.T) {
	const nodes, threads = 2, 3
	c := newCluster(t, nodes, threads)
	seen := make([]bool, nodes*threads)
	_, err := c.RunLoopback(func(w cvm.Worker) {
		if w.Nodes() != nodes || w.LocalThreads() != threads || w.Threads() != nodes*threads {
			t.Errorf("bad shape: %d/%d/%d", w.Nodes(), w.LocalThreads(), w.Threads())
		}
		if w.GlobalID() != w.NodeID()*threads+w.LocalID() {
			t.Errorf("gid %d != node %d * %d + lid %d", w.GlobalID(), w.NodeID(), threads, w.LocalID())
		}
		if w.Now() < 0 {
			t.Error("negative wall time")
		}
		w.Compute(cvm.Millisecond) // modelling no-ops must not charge wall time
		w.TouchPrivate(0)
		w.Yield()
		w.MarkSteadyState()
		seen[w.GlobalID()] = true
		w.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for g, ok := range seen {
		if !ok {
			t.Errorf("thread %d never ran", g)
		}
	}
}

// runLoopbackApp executes one paper application on the real runtime over
// the loopback transport and returns its checksum after validating
// against the sequential reference.
func runLoopbackApp(t *testing.T, name string, nodes, threads int) float64 {
	t.Helper()
	app, err := apps.New(name, apps.SizeTest)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, nodes, threads)
	if err := app.Setup(c); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunLoopback(app.Main); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := app.Check(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return app.Checksum()
}

// TestAppsMatchSimulator is the conformance core: every paper
// application at test scale must reproduce, on the real runtime, the
// exact checksum the deterministic simulator produces. The applications
// round shared-sum contributions to an exact grid, so any correct
// release-consistent execution yields bit-identical checksums — making
// the simulator a cross-backend oracle (DESIGN.md §11).
func TestAppsMatchSimulator(t *testing.T) {
	const nodes, threads = 4, 2
	for _, name := range apps.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			app, err := apps.New(name, apps.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			if !app.SupportsThreads(threads) {
				t.Skipf("%s does not support %d threads per node", name, threads)
			}
			_, simSum, err := apps.RunConfig(name, apps.SizeTest,
				cvm.DefaultConfig(nodes, threads))
			if err != nil {
				t.Fatal(err)
			}
			rtSum := runLoopbackApp(t, name, nodes, threads)
			if rtSum != simSum {
				t.Fatalf("%s: loopback checksum %v, simulator %v", name, rtSum, simSum)
			}
		})
	}
}

// TestRunNodeTCP runs a 3-node cluster over real TCP connections, one
// rt.Cluster per node as separate processes would, with each node
// constructing its own application instance (daemon mode's discipline).
func TestRunNodeTCP(t *testing.T) {
	const nodes, threads = 3, 2
	lns := make([]*transport.TCPListener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		ln, err := transport.ListenTCP(transport.NodeID(i), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr()
	}
	sums := make([]float64, nodes)
	errs := make([]error, nodes)
	checks := make([]error, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := lns[i].Mesh(addrs, 10*time.Second)
			if err != nil {
				errs[i] = err
				return
			}
			defer conn.Close()
			app, err := apps.New("sor", apps.SizeTest)
			if err != nil {
				errs[i] = err
				return
			}
			c, err := rt.NewCluster(rt.DefaultConfig(nodes, threads))
			if err != nil {
				errs[i] = err
				return
			}
			if err := app.Setup(c); err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = c.RunNode(conn, app.Main)
			sums[i] = app.Checksum()
			checks[i] = app.Check()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Global thread 0 lives on node 0: only that process has the checksum.
	if checks[0] != nil {
		t.Fatalf("node 0 check: %v", checks[0])
	}
	_, simSum, err := apps.RunConfig("sor", apps.SizeTest,
		cvm.DefaultConfig(nodes, threads))
	if err != nil {
		t.Fatal(err)
	}
	if sums[0] != simSum {
		t.Fatalf("tcp checksum %v, simulator %v", sums[0], simSum)
	}
}

func TestAllocAfterRunFails(t *testing.T) {
	c := newCluster(t, 1, 1)
	c.MustAlloc("a", 8)
	if _, err := c.RunLoopback(func(w cvm.Worker) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Alloc("b", 8); err == nil {
		t.Error("Alloc after run succeeded")
	}
	if _, err := c.RunLoopback(func(w cvm.Worker) {}); err == nil {
		t.Error("second run succeeded")
	}
}

// TestAccessOutsideAllocation: an access past the allocated space — the
// word after it, a span that starts inside and runs out (named at its
// first word outside), a misaligned address — fails the node naming
// thread, address and allocation. It used to read and write a page
// conjured for the occasion.
func TestAccessOutsideAllocation(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		body       func(w cvm.Worker, base cvm.Addr)
	}{
		{"word past the end", "access at address 8192",
			func(w cvm.Worker, base cvm.Addr) { w.WriteF64(base+8192, 1) }},
		{"span running out", "access at address 8192",
			func(w cvm.Worker, base cvm.Addr) { w.ReadRangeF64(base+8176, make([]float64, 3)) }},
		{"misaligned", "access at address 12",
			func(w cvm.Worker, base cvm.Addr) { w.ReadI64(base + 12) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 1, 2) // one node: a failed node's peers would wait for it
			base := c.MustAlloc("two pages", 8192)
			_, err := c.RunLoopback(func(w cvm.Worker) {
				w.FillF64(base, 1024, 1) // the whole allocation is fine
				if w.LocalID() == 1 {
					tc.body(w, base)
					t.Error("the access returned")
				}
				w.Barrier(0)
			})
			want := "rt: node 0: thread 1: " + tc.want + ": misaligned or outside the 8192 allocated bytes"
			if err == nil || err.Error() != want {
				t.Errorf("run ended with %v, want %q", err, want)
			}
		})
	}
}

// TestUnlockNotHeld runs one program on both backends: thread 0 takes a
// lock, thread 1 — which never acquired it — releases it. The simulator
// panics the thread; the real runtime used to send the release, and the
// manager either dropped it or handed the lock on under the holder. Both
// must end the run with an error that says what happened.
func TestUnlockNotHeld(t *testing.T) {
	body := func(w cvm.Worker) {
		if w.LocalID() == 0 {
			w.Lock(5)
		}
		w.LocalBarrier(0)
		if w.LocalID() == 1 {
			w.Unlock(5)
		}
		w.LocalBarrier(1)
		if w.LocalID() == 0 {
			w.Unlock(5)
		}
	}
	for _, backend := range []struct {
		name, want string
		run        func() error
	}{
		{"sim", "Unlock of lock not held by this thread", func() (err error) {
			c, err := cvm.New(cvm.DefaultConfig(1, 2))
			if err != nil {
				return err
			}
			defer func() {
				if r := recover(); r != nil {
					err = r.(error)
				}
			}()
			_, err = c.Run(body)
			return err
		}},
		{"rt", "node 0: thread 1: Unlock of lock 5 not held by this thread", func() error {
			_, err := newCluster(t, 1, 2).RunLoopback(body)
			return err
		}},
	} {
		if err := backend.run(); err == nil {
			t.Errorf("%s: Unlock by a thread that does not hold the lock went unnoticed", backend.name)
		} else if !strings.Contains(err.Error(), backend.want) {
			t.Errorf("%s: %v, want it to say %q", backend.name, err, backend.want)
		}
	}
}

// TestCheckerOnLoopback is ROADMAP item 3's stage 0: the simulator's
// invariant checker audits the real runtime's event stream. rt emits the
// simulator's trace kinds, so lock exclusion, barrier epochs, local
// barriers, diff uniqueness and interval order apply as they stand; what
// cannot apply to a home-based protocol is exempted by name, with the
// reason.
func TestCheckerOnLoopback(t *testing.T) {
	exempt := map[string]string{
		"twin-diff-pairing": "rt twins pages without a KindTwinCreate event, so every diff looks unpaired",
	}
	const nodes, threads = 4, 2
	for _, name := range []string{"sor", "waternsq"} {
		t.Run(name, func(t *testing.T) {
			app, err := apps.New(name, apps.SizeTest)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rt.DefaultConfig(nodes, threads)
			chk := check.New(nodes, threads)
			cfg.Tracer = chk
			c, err := rt.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Setup(c); err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunLoopback(app.Main); err != nil {
				t.Fatal(err)
			}
			chk.Finish()
			exempted := 0
			for _, v := range chk.Violations() {
				if exempt[v.Invariant] != "" {
					exempted++
					continue
				}
				t.Errorf("%v", v)
			}
			if n := chk.Count() - len(chk.Violations()); n > 0 {
				t.Errorf("%d violations past the checker's detail cap could not be told from the %d exempt ones", n, exempted)
			}
			t.Logf("%d exempt violations", exempted)
		})
	}
}
