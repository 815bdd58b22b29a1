package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/core"
	"cvm/internal/memsim"
	"cvm/internal/netsim"
	"cvm/internal/rt"
	"cvm/internal/sim"
	"cvm/internal/transport"
)

// The layer kernels drive one layer at a time through its public
// functions, so that a per-layer cost has a number of its own beside
// the share the spans attribute to it. They do not depend on the
// workload: every traced run repeats them. Each runs a fixed amount of
// work kernelReps times and reports the median.
const kernelReps = 5

// timeKernel runs fn (which performs ops operations) kernelReps times
// inside a span and returns the median ns per operation and the median
// heap allocations per operation.
func (b *bench) timeKernel(name string, ops int, fn func()) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	var before, after runtime.MemStats
	b.spans.beginCell()
	b.spans.do("kernel:"+name, func() {
		for r := 0; r < kernelReps; r++ {
			runtime.ReadMemStats(&before)
			start := time.Now()
			fn()
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			ns = append(ns, float64(d.Nanoseconds())/float64(ops))
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(ops))
		}
	})
	return median(ns), median(allocs)
}

// ops scales a kernel's fixed amount of work down for a smoke run.
func (b *bench) ops(n int) int {
	if b.smoke {
		return n/100 + 2
	}
	return n
}

// kernelCheck counts one kernel run as an op that failed if err is set.
func (b *bench) kernelCheck(name string, err error) {
	b.led.op("kernel:"+name, 0, err)
}

func (b *bench) simKernels(m map[string]float64) {
	// 512 standing events, each rescheduling itself a pseudo-random
	// distance ahead until the budget is spent: the pattern message
	// deliveries produce.
	events := b.ops(200_000)
	var runErr error
	m["sim.event_ns"], m["sim.event_allocs"] = b.timeKernel("sim.event", events, func() {
		eng := sim.NewEngine()
		x := uint64(1)
		scheduled := 0
		var fire func()
		fire = func() {
			if scheduled < events {
				scheduled++
				x = x*6364136223846793005 + 1442695040888963407
				eng.Schedule(eng.Now()+sim.Time(x>>44)+1, fire)
			}
		}
		for i := 0; i < 512; i++ {
			scheduled++
			eng.Schedule(sim.Time(i), fire)
		}
		if err := eng.Run(); err != nil {
			runErr = err
		}
	})
	b.kernelCheck("sim.event", runErr)

	// Two tasks on one processor waking each other: one Block plus one
	// WakeAt per hand-off, the path every fault, lock and barrier wait
	// takes.
	handoffs := b.ops(50_000)
	runErr = nil
	m["sim.handoff_ns"], m["sim.handoff_allocs"] = b.timeKernel("sim.handoff", handoffs, func() {
		eng := sim.NewEngine()
		p := eng.AddProc(8 * sim.Microsecond)
		var ping, pong *sim.Task
		done := false
		pong = eng.Spawn(p, "pong", func(t *sim.Task) {
			for {
				t.Block(1)
				if done {
					return
				}
				eng.WakeAt(ping, t.Now())
			}
		})
		ping = eng.Spawn(p, "ping", func(t *sim.Task) {
			for i := 0; i < handoffs/2; i++ {
				eng.WakeAt(pong, t.Now())
				t.Block(1)
			}
			done = true
			eng.WakeAt(pong, t.Now())
		})
		if err := eng.Run(); err != nil {
			runErr = err
		}
	})
	b.kernelCheck("sim.handoff", runErr)
}

func (b *bench) netsimKernel(m map[string]float64) {
	// A chain of handler-context sends round an 8-node network: each
	// delivery sends the next message, so one op is one SendFromHandler
	// through egress, wire and ingress to its delivery event.
	sends := b.ops(100_000)
	var runErr error
	m["netsim.send_ns"], m["netsim.send_allocs"] = b.timeKernel("netsim.send", sends, func() {
		eng := sim.NewEngine()
		for i := 0; i < 8; i++ {
			eng.AddProc(8 * sim.Microsecond)
		}
		net := netsim.New(eng, 8, netsim.DefaultParams())
		sent := 0
		var next func()
		next = func() {
			if sent < sends {
				from := netsim.NodeID(sent % 8)
				to := netsim.NodeID((sent + 1) % 8)
				sent++
				net.SendFromHandler(from, to, netsim.ClassLock, 64, next)
			}
		}
		eng.Schedule(0, next)
		if err := eng.Run(); err != nil {
			runErr = err
		}
		if got := net.Stats().TotalMsgs(); got != int64(sends) {
			runErr = fmt.Errorf("netsim delivered %d of %d messages", got, sends)
		}
	})
	b.kernelCheck("netsim.send", runErr)
}

// diffPages builds a twin and a current page from the seed: sparse
// changes a few short runs, dense every byte, clean none.
func diffPages(rng *rand.Rand, pattern string) (twin, cur []byte) {
	const pageSize = 8 << 10 // the simulator's coherence unit
	twin = make([]byte, pageSize)
	rng.Read(twin)
	cur = append([]byte(nil), twin...)
	switch pattern {
	case "sparse":
		for r := 0; r < 16; r++ {
			off := rng.Intn(pageSize - 32)
			for i := 0; i < 8+rng.Intn(24); i++ {
				cur[off+i] ^= 0xff
			}
		}
	case "dense":
		for i := range cur {
			cur[i] ^= byte(1 + rng.Intn(255))
		}
	}
	return twin, cur
}

func (b *bench) coreKernels(m map[string]float64) {
	iters := b.ops(10_000)
	rng := rand.New(rand.NewSource(b.seed))
	runs := map[string][]core.Run{}
	for _, pattern := range []string{"sparse", "dense", "clean"} {
		twin, cur := diffPages(rng, pattern)
		runs[pattern] = core.MakeDiff(0, twin, cur)
		m["core.makediff_"+pattern+"_ns"], _ = b.timeKernel("core.makediff_"+pattern, iters, func() {
			for i := 0; i < iters; i++ {
				core.MakeDiff(0, twin, cur)
			}
		})
	}

	twin, cur := diffPages(rng, "sparse")
	d := &core.Diff{Runs: core.MakeDiff(0, twin, cur)}
	dst := append([]byte(nil), twin...)
	tw := append([]byte(nil), twin...)
	m["core.diffapply_ns"], _ = b.timeKernel("core.diffapply", iters, func() {
		for i := 0; i < iters; i++ {
			d.Apply(dst, tw)
		}
	})
	var applyErr error
	if string(dst) != string(cur) {
		applyErr = fmt.Errorf("applying the diff did not reproduce the page")
	}
	b.kernelCheck("core.diffapply", applyErr)

	buf := make([]byte, 0, 32<<10)
	for _, pattern := range []string{"sparse", "dense"} {
		rs := runs[pattern]
		n := iters
		if pattern == "dense" { // tens of microseconds each
			n = iters / 10
		}
		m["core.encode_"+pattern+"_ns"], _ = b.timeKernel("core.encode_"+pattern, n, func() {
			for i := 0; i < n; i++ {
				buf = core.EncodeRuns(buf[:0], rs)
			}
		})
	}
	enc := core.EncodeRuns(nil, runs["sparse"])
	var decErr error
	m["core.decode_sparse_ns"], m["core.decode_allocs"] = b.timeKernel("core.decode_sparse", iters, func() {
		for i := 0; i < iters; i++ {
			got, _, err := core.DecodeRuns(enc)
			if err != nil || len(got) != len(runs["sparse"]) {
				decErr = fmt.Errorf("decode: %d runs, want %d: %v", len(got), len(runs["sparse"]), err)
			}
		}
	})
	b.kernelCheck("core.decode_sparse", decErr)
}

func (b *bench) memsimKernels(m map[string]float64) {
	accesses := b.ops(2_000_000)
	s := memsim.NewSystem(memsim.SP2Params())
	m["memsim.access_ns"], _ = b.timeKernel("memsim.access", accesses, func() {
		for i := 0; i < accesses; i++ {
			s.Access(uint64(i%(1<<20)) * 8)
		}
	})
	const span = 1024 // one 8 KiB page of float64s per call
	m["memsim.range_ns_per_access"], _ = b.timeKernel("memsim.range", accesses, func() {
		for i := 0; i < accesses/span; i++ {
			s.AccessStride8(uint64(i%128)<<13, span)
		}
	})
}

// microProgram runs main on a fresh default cluster through the public
// API and returns the run's statistics and host time.
func (b *bench) microProgram(name string, nodes int, setup func(*cvm.Cluster), main func(cvm.Worker)) (cvm.Stats, time.Duration) {
	var st cvm.Stats
	var err error
	var host time.Duration
	b.spans.beginCell()
	b.spans.do("kernel:"+name, func() {
		var cluster *cvm.Cluster
		cluster, err = cvm.New(cvm.DefaultConfig(nodes, 1))
		if err != nil {
			return
		}
		setup(cluster)
		start := time.Now()
		st, err = cluster.Run(main)
		host = time.Since(start)
	})
	b.kernelCheck(name, err)
	return st, host
}

// medianOfReps runs fn kernelReps times and returns the median of the
// samples it reports; a repetition that reports !ok yields none.
func medianOfReps(fn func() (sample float64, ok bool)) float64 {
	var samples []float64
	for r := 0; r < kernelReps; r++ {
		if v, ok := fn(); ok {
			samples = append(samples, v)
		}
	}
	return median(samples)
}

func (b *bench) coreMicroPrograms(m map[string]float64) {
	const wordsPerPage = 1024 // 8 KiB pages of float64
	var data cvm.F64Array
	var loop time.Duration // host time of the reader's loop, taken inside the worker
	var sum float64

	// Remote fault: node 0 writes one word of each page, node 1 reads
	// them after a barrier. The reader's loop is timed on the host from
	// inside the worker; everyone else waits at the barrier meanwhile.
	faultPages := b.ops(1500)
	m["core.fault_host_us"] = medianOfReps(func() (float64, bool) {
		st, _ := b.microProgram("core.fault", 2,
			func(c *cvm.Cluster) { data = c.MustAllocF64("pages", faultPages*wordsPerPage) },
			func(w cvm.Worker) {
				if w.NodeID() == 0 {
					for p := 0; p < faultPages; p++ {
						data.Set(w, p*wordsPerPage, float64(p))
					}
				}
				w.Barrier(0)
				if w.NodeID() == 1 {
					start := time.Now()
					for p := 0; p < faultPages; p++ {
						sum += data.Get(w, p*wordsPerPage)
					}
					loop = time.Since(start)
				}
				w.Barrier(1)
			})
		return us(loop) / float64(faultPages), st.Total.RemoteFaults > 0
	})

	// Many writers: every node but the reader writes its own word of
	// each page; the reader then faults and must order and apply a diff
	// per writer.
	writers, manyPages := 64, 60
	if b.smoke {
		writers, manyPages = 16, 8
	}
	m["core.manywriter_fault_host_us"] = medianOfReps(func() (float64, bool) {
		st, _ := b.microProgram("core.manywriter_fault", writers,
			func(c *cvm.Cluster) { data = c.MustAllocF64("pages", manyPages*wordsPerPage) },
			func(w cvm.Worker) {
				if w.NodeID() != 0 {
					for p := 0; p < manyPages; p++ {
						data.Set(w, p*wordsPerPage+w.NodeID(), 1)
					}
				}
				w.Barrier(0)
				if w.NodeID() == 0 {
					start := time.Now()
					for p := 0; p < manyPages; p++ {
						sum += data.Get(w, p*wordsPerPage+1)
					}
					loop = time.Since(start)
				}
				w.Barrier(1)
			})
		return us(loop) / float64(manyPages), st.Total.DiffsUsed > 0
	})

	// Locks: 8 nodes pass one lock round; host time per remote acquire.
	lockRounds := b.ops(400)
	m["core.lock_host_us"] = medianOfReps(func() (float64, bool) {
		st, host := b.microProgram("core.lock", 8,
			func(c *cvm.Cluster) { data = c.MustAllocF64("counter", 1) },
			func(w cvm.Worker) {
				for i := 0; i < lockRounds; i++ {
					w.Lock(0)
					data.Add(w, 0, 1)
					w.Unlock(0)
				}
				w.Barrier(0)
			})
		return ratio(us(host), float64(st.Total.RemoteLocks)), st.Total.RemoteLocks > 0
	})

	// Barriers: 8 nodes, nothing between them; host time per barrier.
	barriers := b.ops(2000)
	m["core.barrier_host_us"] = medianOfReps(func() (float64, bool) {
		_, host := b.microProgram("core.barrier", 8,
			func(c *cvm.Cluster) {},
			func(w cvm.Worker) {
				for i := 0; i < barriers; i++ {
					w.Barrier(i)
				}
			})
		return us(host) / float64(barriers), true
	})

	// Building a 256-node system: the fixed cost of every scale run.
	m["core.newsystem_ms_256"] = medianOfReps(func() (float64, bool) {
		var d time.Duration
		b.spans.beginCell()
		b.spans.do("kernel:core.newsystem_256", func() {
			start := time.Now()
			_, err := cvm.New(cvm.DefaultConfig(256, 1))
			d = time.Since(start)
			b.kernelCheck("core.newsystem_256", err)
		})
		return ms(d), true
	})

	// One cell under a lossy network: the reliable-transport path. The
	// fault schedule is keyed by the seed.
	lossy := cell{"waternsq", apps.SizeSmall, 8, 2}
	if b.smoke {
		lossy.size = apps.SizeTest
	}
	plan, err := cvm.ParseFaults("drop=0.02,dup=0.005,jitter=200us", uint64(b.seed))
	b.kernelCheck("core.lossy plan", err)
	if err == nil {
		out := b.runSim(lossy, fmt.Sprintf(" lossy seed %d", b.seed), func(cfg *cvm.Config) { cfg.Faults = plan }, observers{})
		m["core.lossy_host_ms"] = ms(out.host)
		m["core.retransmits"] = float64(out.stats.Total.Retransmits)
	}
}

// appsSolo runs every grid application at 1x1: kernel, access path and
// memsim with no remote protocol.
func (b *bench) appsSolo(m map[string]float64) {
	seen := map[string]bool{}
	var total time.Duration
	for _, c := range findWorkload("sim-grid").cells(b.smoke) {
		if seen[c.app] {
			continue
		}
		seen[c.app] = true
		c.nodes, c.threads = 1, 1
		total += b.runSim(c, "", nil, observers{}).host
	}
	m["apps.solo_host_ms"] = ms(total)
	// The scaleout kernel alone, to set beside sim-scale's pass time.
	c := findWorkload("sim-scale").cells(b.smoke)[0]
	c.nodes = 1
	m["apps.scaleout_solo_host_ms"] = ms(b.runSim(c, "", nil, observers{}).host)
}

// pingPong measures a 64-byte round trip and a one-way stream of 4 KiB
// messages between two endpoints, with an echo goroutine on the far end.
func (b *bench) pingPong(name string, near, far transport.Conn, m map[string]float64) {
	rounds, stream := b.ops(5000), b.ops(4096)
	var wg sync.WaitGroup
	var farErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ { // echo
			msg, err := far.Recv()
			if err != nil {
				farErr = err
				return
			}
			if err := far.Send(transport.Message{From: far.Self(), To: near.Self(), Class: transport.ClassLock, Payload: msg.Payload}); err != nil {
				farErr = err
				return
			}
		}
		for i := 0; i < stream; i++ { // sink
			if _, err := far.Recv(); err != nil {
				farErr = err
				return
			}
		}
		farErr = far.Send(transport.Message{From: far.Self(), To: near.Self(), Class: transport.ClassLock})
	}()

	var err error
	b.spans.beginCell()
	b.spans.do("kernel:transport."+name, func() {
		start := time.Now()
		for i := 0; i < rounds && err == nil; i++ {
			if err = near.Send(transport.Message{From: near.Self(), To: far.Self(), Class: transport.ClassLock, Payload: make([]byte, 64)}); err == nil {
				_, err = near.Recv()
			}
		}
		m["transport."+name+"_rtt_us"] = us(time.Since(start)) / float64(rounds)

		start = time.Now()
		for i := 0; i < stream && err == nil; i++ {
			err = near.Send(transport.Message{From: near.Self(), To: far.Self(), Class: transport.ClassDiff, Payload: make([]byte, 4096)})
		}
		if err == nil {
			_, err = near.Recv() // the sink's end-of-stream reply
		}
		m["transport."+name+"_mb_s"] = float64(stream) * 4096 / 1e6 / time.Since(start).Seconds()
	})
	if err != nil {
		// Unblock the far end if it is still waiting for traffic.
		b.spans.do("Conn.Close", func() { near.Close(); far.Close() })
	}
	wg.Wait()
	if err == nil {
		err = farErr
	}
	b.kernelCheck("transport."+name, err)
}

// tcpMesh forms an n-node TCP mesh on the loopback interface, one
// goroutine per node for the blocking Mesh call.
func (b *bench) tcpMesh(n int) ([]transport.Conn, error) {
	lns := make([]*transport.TCPListener, n)
	addrs := make([]string, n)
	var err error
	b.spans.do("ListenTCP", func() {
		for i := range lns {
			if lns[i], err = transport.ListenTCP(transport.NodeID(i), "127.0.0.1:0"); err != nil {
				for _, ln := range lns[:i] {
					ln.Close()
				}
				return
			}
			addrs[i] = lns[i].Addr()
		}
	})
	if err != nil {
		return nil, err
	}
	conns := make([]transport.Conn, n)
	errs := make([]error, n)
	b.spans.do("Mesh", func() {
		var wg sync.WaitGroup
		for i := range lns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				conns[i], errs[i] = lns[i].Mesh(addrs, 10*time.Second)
			}(i)
		}
		wg.Wait()
	})
	for _, e := range errs {
		if e != nil {
			err = e
		}
	}
	if err != nil {
		closeAll(conns)
		return nil, err
	}
	return conns, nil
}

func closeAll(conns []transport.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

func (b *bench) transportKernels(m map[string]float64) {
	lo := transport.NewLoopback(2)
	b.pingPong("loopback", lo[0], lo[1], m)
	closeAll(lo)

	m["transport.tcp_mesh_setup_ms"] = medianOfReps(func() (float64, bool) {
		b.spans.beginCell()
		var conns []transport.Conn
		var err error
		start := time.Now()
		b.spans.do("kernel:transport.tcp_mesh_setup", func() { conns, err = b.tcpMesh(rtNodes) })
		d := time.Since(start)
		b.kernelCheck("transport.tcp_mesh_setup", err)
		b.spans.do("Conn.Close", func() { closeAll(conns) })
		return ms(d), err == nil
	})

	conns, err := b.tcpMesh(2)
	b.kernelCheck("transport.tcp mesh", err)
	if err == nil {
		b.pingPong("tcp", conns[0], conns[1], m)
		b.spans.do("Conn.Close", func() { closeAll(conns) })
	}
}

// rtOverTCP runs two applications on an in-process TCP mesh through
// RunNode. The runtime's teardown race fails some of these runs today,
// so they are counted here, in a layer metric, and not among the ops.
func (b *bench) rtOverTCP(m map[string]float64) {
	attempts := 10
	cells := []cell{{"sor", apps.SizeSmall, rtNodes, 2}, {"waternsq", apps.SizePaper, rtNodes, 2}}
	if b.smoke {
		attempts = 2
		for i := range cells {
			cells[i].size = apps.SizeTest
		}
	}
	var wall []float64
	tried, failed := 0, 0
	for _, c := range cells {
		for a := 0; a < attempts; a++ {
			tried++
			b.spans.beginCell()
			var d time.Duration
			var err error
			b.spans.do("kernel:rt.tcp", func() { d, err = b.runNodeMesh(c) })
			if err != nil {
				failed++
				continue
			}
			wall = append(wall, ms(d))
		}
	}
	m["rt.tcp_wall_ms"] = median(wall)
	m["rt.tcp_fail_share"] = float64(failed) / float64(tried)
}

// runNodeMesh runs one cell as rtNodes RunNode calls over a TCP mesh
// and returns the slowest node's elapsed time.
func (b *bench) runNodeMesh(c cell) (time.Duration, error) {
	conns, err := b.tcpMesh(c.nodes)
	if err != nil {
		return 0, err
	}
	results := make([]rt.Result, c.nodes)
	errs := make([]error, c.nodes)
	checks := make([]error, c.nodes)
	b.spans.do("RunNode", func() {
		var wg sync.WaitGroup
		for i := range conns {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				app, err := apps.New(c.app, c.size)
				if err != nil {
					errs[i] = err
					return
				}
				cluster, err := rt.NewCluster(rt.DefaultConfig(c.nodes, c.threads))
				if err != nil {
					errs[i] = err
					return
				}
				if errs[i] = app.Setup(cluster); errs[i] != nil {
					return
				}
				results[i], errs[i] = cluster.RunNode(conns[i], app.Main)
				if i == 0 && errs[i] == nil { // global thread 0 holds the checksum
					checks[i] = app.Check()
				}
			}(i)
		}
		// A node that lost a peer mid-run may wait for it for ever;
		// closing every endpoint makes its Recv fail instead.
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(20 * time.Second):
			closeAll(conns)
			<-finished
			errs[0] = fmt.Errorf("%v over tcp: no completion within 20 s", c)
		}
	})
	b.spans.do("Conn.Close", func() { closeAll(conns) })
	var slowest time.Duration
	for i := range errs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if checks[i] != nil {
			return 0, checks[i]
		}
		if results[i].Elapsed > slowest {
			slowest = results[i].Elapsed
		}
	}
	return slowest, nil
}

// runKernels fills m with every workload-independent layer metric.
func (b *bench) runKernels(m map[string]float64) {
	b.withSpans(func() {
		b.simKernels(m)
		b.netsimKernel(m)
		b.coreKernels(m)
		b.memsimKernels(m)
		b.coreMicroPrograms(m)
		b.appsSolo(m)
		b.transportKernels(m)
		b.rtOverTCP(m)
	})
}
